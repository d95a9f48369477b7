"""Triple-system designs from two-qubit operator seeds.

The package builds (2^m - 1, 3, 1) block designs whose points carry
two-qubit operator labels, resolves the 15-point system into seven
day-labeled classes, and renders any design as a color tiling or as a
windowed chord sequence.  An independent dense-matrix oracle checks the
label algebra behind it all.
"""

from .audio import (
    NoteLabel,
    Scale,
    WindowParams,
    build_cps_scale,
    chord_sequence,
    note_of,
    spectral_report,
    synthesize,
    write_wav,
)
from .colors import ColorLabel, color_of, render_diagram, render_tiling, row_color_class
from .designs import (
    Block,
    BlockKind,
    Design,
    DesignParams,
    Point,
    classify_block,
    display_order,
    embed_coordinates,
    enumerate_blocks,
    expand_seeds,
    fano_subdesign,
    validate_seeds,
)
from .errors import (
    DependentSeedsError,
    DesignError,
    DocumentError,
    KirkmanError,
    LabelError,
    OracleError,
    RenderError,
    ResolutionError,
    SeedError,
    SynthesisError,
)
from .oracle import (
    count_valid_seeds,
    dense_of,
    sweep_seed_designs,
    verify_algebra,
    verify_design,
)
from .pauli import (
    CommutatorEntry,
    DictionaryEntry,
    PauliLabel,
    Phase,
    all_labels,
    commutant,
    commutator,
    commutator_table,
    commutes,
    dictionary,
    dictionary_entries,
    o_label,
    product,
    q_label,
    weight_of,
)
from .resolver import (
    DayLabel,
    ParallelClass,
    Resolution,
    enumerate_spreads,
    match_days,
    reference_resolution,
    resolve,
    validate_resolution,
)
from .serialize import design_to_doc, load_document, save_document, to_json

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # labels and algebra
    "PauliLabel",
    "Phase",
    "DictionaryEntry",
    "CommutatorEntry",
    "q_label",
    "o_label",
    "all_labels",
    "product",
    "commutes",
    "commutant",
    "commutator",
    "commutator_table",
    "dictionary",
    "dictionary_entries",
    "weight_of",
    # designs
    "Point",
    "Block",
    "BlockKind",
    "Design",
    "DesignParams",
    "validate_seeds",
    "expand_seeds",
    "enumerate_blocks",
    "classify_block",
    "fano_subdesign",
    "display_order",
    "embed_coordinates",
    # resolution
    "DayLabel",
    "ParallelClass",
    "Resolution",
    "match_days",
    "resolve",
    "validate_resolution",
    "enumerate_spreads",
    "reference_resolution",
    # color
    "ColorLabel",
    "color_of",
    "row_color_class",
    "render_tiling",
    "render_diagram",
    # audio
    "NoteLabel",
    "Scale",
    "WindowParams",
    "build_cps_scale",
    "note_of",
    "chord_sequence",
    "synthesize",
    "write_wav",
    "spectral_report",
    # oracle
    "dense_of",
    "verify_algebra",
    "verify_design",
    "count_valid_seeds",
    "sweep_seed_designs",
    # documents
    "design_to_doc",
    "to_json",
    "save_document",
    "load_document",
    # errors
    "KirkmanError",
    "LabelError",
    "SeedError",
    "DependentSeedsError",
    "DesignError",
    "ResolutionError",
    "RenderError",
    "SynthesisError",
    "OracleError",
    "DocumentError",
]
