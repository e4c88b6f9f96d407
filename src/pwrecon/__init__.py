"""Plane-wave ultrasound reconstruction: delay-and-sum baselines plus a
splitting solver that couples channel-data fidelity, deblurring, and
sparsity in one estimate."""

from .acquisition import (
    ChannelData,
    CystRegion,
    ImagingGrid,
    Phantom,
    PlaneWaveTx,
    PointTarget,
    ProbeGeometry,
    make_cyst_phantom,
    make_point_phantom,
    simulate_channel_data,
)
from .beamform import (
    BModeImage,
    RfImage,
    compound,
    das_beamform,
    envelope,
    export_png,
    log_compress,
)
from .config import RunConfig, get_builtin_config, load_run_config, preset_solver_config
from .forward_model import (
    ApodizationSpec,
    SparseSystemMatrix,
    apodization_weight,
    build_system_matrix,
    cached_system_matrix,
    load_matrix,
    propagation_delay,
    save_matrix,
    suggest_time_window,
)
from .io import ingest_picmus, read_container, write_container
from .metrics import (
    MetricsReport,
    RegionSpec,
    annulus_mask,
    cnr,
    disc_mask,
    fwhm,
    gcnr,
    histogram_match,
)
from .psf import Psf, conv_apply, deconv_update, make_parametric_psf
from .solver import (
    DivergenceError,
    InnerSettings,
    SolveReport,
    SolverConfig,
    SolverError,
    SolverState,
    beamform_update,
    multiplier_update,
    objective,
    solve,
    sparsity_update,
)

__version__ = "0.1.0"
