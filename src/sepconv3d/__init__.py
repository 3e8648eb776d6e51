"""sepconv3d: separable 3D convolution over stereo cost volumes.

Dense 4D volumes (channels, disparity, height, width), four interchangeable
convolution variants with matching closed-form MAC/parameter counts, a
network profiler, and a self-verification catalog.  See the README for the
full tour.

Submodules import lazily so that ``python -m sepconv3d bench`` can pin
thread-pool environment variables before numpy loads.
"""

from __future__ import annotations

__version__ = "0.1.0"

_EXPORTS = {
    # volume
    "Shape4": "volume",
    "Volume4": "volume",
    "VolumeError": "volume",
    "VolumeIOError": "volume",
    "load_volume": "volume",
    "save_volume": "volume",
    # kernels
    "KernelBank": "kernels",
    "KernelError": "kernels",
    "backward": "kernels",
    "conv3d_full": "kernels",
    "conv3d_fwsc": "kernels",
    "conv3d_dwsc": "kernels",
    "conv3d_fdwsc": "kernels",
    "deconv3d_backward": "kernels",
    "deconv3d_full": "kernels",
    "depthwise_cube": "kernels",
    "pointwise_mix": "kernels",
    "scale_shift": "kernels",
    "forward": "kernels",
    "output_dims": "kernels",
    "load_bank": "kernels",
    "save_bank": "kernels",
    # netcfg
    "ConfigError": "netcfg",
    "LayerSpec": "netcfg",
    "NetworkConfig": "netcfg",
    "infer_shapes": "netcfg",
    "load_config": "netcfg",
    "parse_config": "netcfg",
    "substitute_variant": "netcfg",
    # costs
    "CostBreakdown": "costs",
    "count_layer": "costs",
    "count_network": "costs",
    "reduction_report": "costs",
    "scatter_taps": "costs",
    # verify
    "counted_forward": "verify",
    "finite_diff_grad": "verify",
    "loop_forward": "verify",
    "run_catalog": "verify",
    # cli
    "main": "cli",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
