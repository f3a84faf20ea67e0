"""`python -m ftdesigns`: the `ftdesigns` command line."""
from .cli import main_entry

if __name__ == "__main__":
    main_entry()
