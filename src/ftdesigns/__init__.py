"""Flag-transitive 2-designs with prime pair-coverage: a permutation
group engine, a feasible-parameter search over sporadic almost simple
groups, and explicit constructions of the designs that survive."""

__version__ = "0.1.0"

from .perm import Permutation, compose, identity, inverse, parse_cycles, format_cycles
from .bsgs import StabilizerChain, bsgs_build, contains, orbit, stabilizer_gens
from .actions import (GroupAction, SubdegreeProfile, coset_action,
                      is_primitive, is_transitive, subdegrees)
from .designs import (Design, FlagReport, ParameterSet, SuzukiConstruction,
                      block_search, coset_geometry, design_from_text, design_to_text,
                      is_flag_transitive, iso_check, orbit_block_search,
                      suzuki_construction, suzuki_design, verify_2design)
from .families import (FamilyParams, OrbitForcing, g2_orbit_forcing, g2_params,
                       is_fermat_prime, is_mersenne_prime,
                       lemma38_block_stabilizer_order, suzuki_params)
from .gfield import GF
from .groupdata import (CatalogEntry, OrdersRecord, catalog_entry, load_catalog,
                        orders_table, parse_catalog, serialize_catalog, validate_entry)
from .pipeline import (CandidateRecord, enumerate_all, enumerate_parameters,
                       index_divides_filter, subdegree_filter)
from .suzuki import Ovoid, circles, ovoid_points, suzuki_action
