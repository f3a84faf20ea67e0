"""Flag-transitive 2-designs with prime pair-coverage: a permutation
group engine, a feasible-parameter search over sporadic almost simple
groups, and explicit constructions of the designs that survive.

The package exports no names of its own: import each one from its
submodule (`ftdesigns.perm`, `ftdesigns.bsgs`, `ftdesigns.actions`,
`ftdesigns.designs`, `ftdesigns.pipeline`, ...)."""

__version__ = "0.1.0"
