"""quadcert: exact continued fractions and universal-form exclusion
certificates over real quadratic fields Q(sqrt(D))."""

from .qarith import (
    QuadElem,
    SquarefreeStatus,
    SquarefreeUndetermined,
    format_elem,
    is_square,
    isqrt,
    parse_elem,
    squarefree_status,
    succ,
    succeq,
)
from .contfrac import (
    Convergent,
    SurdExpansion,
    alpha,
    check_fraction_bounds,
    check_norm_bounds,
    convergents,
    expand_sqrt,
    interlacing_check,
)
from .friesen import (
    FieldHit,
    SymSequence,
    construct_sequence,
    derive_D,
    parity_condition,
    search_k,
)
from .smallnorm import (
    audit_lemma,
    enumerate_small_norm,
    naive_enumerate,
    power_trace,
    ramified_divisibility,
)
from .certify import (
    Certificate,
    QuadraticForm,
    build_certificate,
    decide_represent,
    pair_refute,
    parse_form,
    select_witnesses,
    totally_positive_up_to,
)
from .verify import MalformedCertificate, Verdict, verify_certificate, verify_file

__version__ = "0.1.0"
