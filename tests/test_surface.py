"""The package's public surface and the names the benchmark patches.

perfbench/tracing.py wraps public callables by "module:attribute path"; a
name removed from the package breaks it, so this guard fails first.
"""

import sys
from pathlib import Path

import moyalmetric

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracing  # noqa: E402


def test_every_exported_name_resolves():
    missing = [name for name in moyalmetric.__all__ if not hasattr(moyalmetric, name)]
    assert not missing


def _namespaces() -> dict:
    """Every moyalmetric module and class namespace, as {(owner, name): value}."""
    out = {}
    for mod in tracing._modules():
        for name, value in vars(mod).items():
            out[mod.__name__, name] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                out.update(((f"{mod.__name__}.{name}", attr), member)
                           for attr, member in vars(value).items())
    return out


def test_benchmark_patch_points_resolve_and_restore():
    for point in tracing.SPAN_POINTS.values():  # imports finite, which the package does not
        tracing._resolve(point)
    before = _namespaces()
    with tracing.Patches() as patches:
        tracing.SpanRecorder().install(patches)
        tracing.Counts().install(patches)
        for point in tracing.SPAN_POINTS.values():
            owner, attr = tracing._resolve(point)
            assert getattr(vars(owner)[attr], tracing.MARK, False), point
    assert not tracing.installed_wrappers()
    after = _namespaces()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
