"""Analysis toolkit for singular (descriptor) linear discrete-time systems.

Core surface:

* pencils and spectra     -- :mod:`dkit.pencil`
* canonical form          -- :mod:`dkit.weierstrass`
* analysis and solutions  -- :mod:`dkit.solver`
* causality analysis      -- :mod:`dkit.causality`
* command-line front-end  -- :mod:`dkit.cli`

The records are immutable values: NamedTuples, or classes on the one
:class:`~dkit.record.Record` base, which says why none is a dataclass.
"""

from .causality import (
    CausalityReport,
    brute_force_causality_oracle,
    build_report,
)
from .errors import (
    ChainConstructionFailure,
    DkitError,
    InconsistentInitialCondition,
    InputHorizonTooShort,
    IrregularPencil,
    ParseError,
    UnresolvableSpectrum,
)
from .matrices import Matrix, block_diag, hstack, vstack
from .pencil import CharPoly, Pencil, char_poly, finite_eigenvalues
from .scalars import Mode, Scalar, format_scalar, parse_scalar
from .solver import (
    Analysis,
    ConsistencyResult,
    DescriptorSystem,
    InputSignal,
    Trajectory,
    TransformedInput,
    analyze,
    check_consistency,
    residual_oracle,
    solve,
    solve_from_zp,
    transform_input,
)
from .weierstrass import (
    JordanBlockSpec,
    NilpotentBlockSpec,
    VerificationReport,
    WeierstrassDecomposition,
    assemble_Hq,
    assemble_Jp,
    decompose,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "CausalityReport",
    "ChainConstructionFailure",
    "CharPoly",
    "ConsistencyResult",
    "DescriptorSystem",
    "DkitError",
    "InconsistentInitialCondition",
    "InputHorizonTooShort",
    "InputSignal",
    "IrregularPencil",
    "JordanBlockSpec",
    "Matrix",
    "Mode",
    "NilpotentBlockSpec",
    "ParseError",
    "Pencil",
    "Scalar",
    "Trajectory",
    "TransformedInput",
    "UnresolvableSpectrum",
    "VerificationReport",
    "WeierstrassDecomposition",
    "analyze",
    "assemble_Hq",
    "assemble_Jp",
    "block_diag",
    "brute_force_causality_oracle",
    "build_report",
    "char_poly",
    "check_consistency",
    "decompose",
    "finite_eigenvalues",
    "format_scalar",
    "hstack",
    "parse_scalar",
    "residual_oracle",
    "solve",
    "solve_from_zp",
    "transform_input",
    "verify",
    "vstack",
]
