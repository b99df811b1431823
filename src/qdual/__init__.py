"""Exact verification toolkit for Matlis duality and dualizing-module
predicates over finite local algebras.

Rings are finite commutative local F_p-algebras given by structure
constants; modules are finite, given by action matrices.  All linear
algebra is exact arithmetic mod p.
"""

from .classes import (CheckReport, DEFAULT_BOUND, check_artinian_collapse,
                      check_class_equality, check_duality_swap,
                      check_hom_faithful, check_theorem_B,
                      check_two_of_three, in_auslander_class, in_bass_class,
                      is_derived_reflexive, is_quasidualizing,
                      is_semidualizing, probe_tensor_faithful)
from .corpus import builtin_module, corpus_ring
from .errors import (InvalidModuleMap, ModuleValidationError,
                     NotQuasidualizing, NotSubmodule, ParseError, QdualError,
                     RingMismatch, RingValidationError, TooLarge,
                     UnknownRing)
from .fileformat import (parse_module, parse_ring, serialize_module,
                         serialize_ring)
from .functors import (biduality_map, evaluation_map, gamma_map, hom_module,
                       homothety_map, injective_hull, is_isomorphism,
                       matlis_dual, tensor_module)
from .homology import (FreeResolution, ext_dims, ext_dims_via_injective,
                       minimal_free_resolution, tor_dims)
from .module import (Module, ModuleMap, ShortExactSequence,
                     clear_resolution_cache, free_module,
                     minimal_generator_count, quotient_module,
                     radical_submodule, regular_module, ses_from_submodule,
                     socle, zero_module)
from .ring import Ring, validate_ring
from .sampling import random_module, random_ses, sample_modules

__version__ = "0.1.0"

__all__ = [
    "CheckReport", "DEFAULT_BOUND", "FreeResolution", "InvalidModuleMap",
    "Module", "ModuleMap", "ModuleValidationError", "NotQuasidualizing",
    "NotSubmodule", "ParseError", "QdualError", "Ring", "RingMismatch",
    "RingValidationError", "ShortExactSequence", "TooLarge", "UnknownRing",
    "biduality_map", "builtin_module", "check_artinian_collapse",
    "check_class_equality", "check_duality_swap", "check_hom_faithful",
    "check_theorem_B", "check_two_of_three", "clear_resolution_cache",
    "corpus_ring", "evaluation_map", "ext_dims", "ext_dims_via_injective",
    "free_module", "gamma_map", "hom_module", "homothety_map",
    "in_auslander_class", "in_bass_class", "injective_hull",
    "is_derived_reflexive", "is_isomorphism", "is_quasidualizing",
    "is_semidualizing", "matlis_dual", "minimal_free_resolution",
    "minimal_generator_count", "parse_module", "parse_ring",
    "probe_tensor_faithful", "quotient_module", "radical_submodule",
    "random_module", "random_ses", "regular_module", "sample_modules",
    "serialize_module", "serialize_ring", "ses_from_submodule", "socle",
    "tensor_module", "tor_dims", "validate_ring", "zero_module",
]
