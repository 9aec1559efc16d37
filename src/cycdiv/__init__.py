"""Exact construction and certification of cyclic division algebras.

The package builds cyclic algebras (K/F, sigma_0, alpha) over valued
fields, computes Galois norms both by conjugate products and by a closed
combinatorial formula over anagram classes, certifies division-algebra
status via a residue criterion for norm membership, and checks Albert
biquaternion anisotropy machinery by exact sampling.
"""

from .errors import (CycdivError, DomainMismatchError, PrecisionError,
                     ValueGroupError, ZeroDivisorError)
from .basefields import (PrimeField, RationalField, QQ, is_prime,
                         primitive_qth_root, qth_power_set, is_qth_power)
from .series import (INFINITY, ValueGroup, Series, SeriesDomain,
                     hensel_qth_root, is_square_in_tower, laurent, hahn)
from .anagram import (AnagramClass, all_classes, c0_classes, class_of,
                      tilde_sigma, verify_level_count_laws)
from .element import Element, FiniteAlgebra
from .kummer import (KummerContext, NormDecision, galois_sigma,
                     norm_oracle, norm_formula, norm_valuation, is_norm)
from .algebra import (CyclicAlgebra, ConstantsAlgebra, StructureConstants,
                      relation_mul, structure_constants, constants_mul, tensor,
                      constants_to_json, constants_from_json, is_division,
                      invert, zero_divisor_witness)
from .quaternion import (QuaternionAlgebra, BiquaternionElement, AlbertForm, albert_form,
                         QuadraticExtension, anisotropy_sample_test,
                         sos_leading_data, nonsquare_witness)
from .verify import (SuiteConfig, VerificationReport, CLAIM_IDS, run_suite,
                     laurent_context, hahn_tower_context, hamilton_algebra,
                     albert_setup, export_constants)

__version__ = "0.1.0"
