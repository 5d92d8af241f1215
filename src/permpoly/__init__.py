"""Permutation-polynomial family over GF(2^m) and its verification suite."""

from .errors import (NotCoprime, NotDivisible, OutOfRange, PermpolyError,
                     ReducibleModulus, UnsupportedDegree)
from .field import (INFINITY, ExtField, FieldSpec, build_b_set, coprime_ks,
                    element_to_hex, extension_of, load_field_table, make_field,
                    smallest_irreducible)
from .maps import (DicksonMethod, dickson_exponents, eval_dickson,
                   eval_f_alpha, eval_g_beta, eval_h, eval_h_via_identity,
                   phi, tau, w_map)
from .params import ParamSet, derive_params
from .sparsepoly import (expand_h, sp_add, sp_div_x2, sp_eval, sp_mul, sp_pow2k,
                         sp_reduce_mod_field, sp_serialize, trace_poly)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
