"""fordlab: exact verification of Ford-domain constructions and trace sets."""

from fordlab.exactnum import (
    MixedRadicand,
    NotComplexModulus,
    NotReal,
    PrecisionExhausted,
    QuadValue,
    RadicalExpr,
    qv,
    qv_format,
    qv_parse,
    sqrt_qv,
)
from fordlab.moebius import (
    ElementClass,
    MoebiusElement,
    NotIntegral,
    bianchi_omega,
    from_ints,
    identity,
    in_bianchi,
    in_gamma0,
    in_normalizer,
    in_principal,
    mm_format,
    mm_parse,
)
from fordlab.geometry import (
    Disjointness,
    FixesInfinity,
    IsometricDisk,
    LemmaViolation,
    Membership,
    PrismDomain,
    StripDomain,
    bianchi_separation_check,
    build_ford_two_gen,
    disks_disjoint,
    infinite_area_height,
    isometric_disk,
    membership_reduce,
    power_sphere_scan,
    verify_separation,
)
from fordlab.tracesets import (
    EnumerationResult,
    NotHyperbolic,
    StateExplosion,
    TraceSetModel,
    coverage_report,
    enumerate_traces,
    expected_set,
    model_contains,
    trace_to_length,
)
from fordlab.constructions import (
    Certificate,
    Construction,
    SearchExhausted,
    UnsupportedParameter,
    build,
    certify,
    find_power_conjugator,
    verify_construction,
)

__version__ = "0.1.0"
