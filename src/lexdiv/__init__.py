"""lexdiv: lexical-diversity indices and a length-sensitivity evaluation
harness (sampling methods, parameter sweeps, agreement statistics)."""

from .corpus import Corpus, CorpusError, Text, load_corpus
from .indices import (
    IndexKind,
    IndexSpec,
    evaluate,
    gini_simpson,
    guiraud_r,
    hdd,
    herdan_c,
    maas_a,
    mattr,
    msttr,
    mtld,
    mttrrs,
    mttrss,
    token_weights,
    ttr,
)
from .sampling import (
    SamplingConfig,
    SamplingError,
    ScoreMatrix,
    alternating_sampling,
    ordered_random_sampling,
    parallel_sampling,
    parameter_sweep,
    random_sampling,
    run_method,
)
from .stats import (
    AnovaResult,
    CorrComparison,
    IccResult,
    StatsError,
    compare_correlations,
    icc_2_1,
    pearson,
    rm_anova,
    spearman_brown,
    steiger_t,
    zou_ci,
)
from .profiles import (
    center_columns,
    emit_plot_data,
    hdd_presence_curves,
    select_profiles,
)

__version__ = "0.1.0"


def reference_text() -> Text:
    """The bundled 165-token noun-recoded excerpt used as a scoring fixture
    (100 types)."""
    # imported here: where ``site`` has not loaded it already,
    # ``importlib.resources`` costs about 8 ms of every ``import lexdiv``
    from importlib import resources

    raw = resources.files("lexdiv.data").joinpath("noun_sample_165.txt").read_text()
    return Text(id="noun_sample_165", tokens=tuple(raw.split()))
