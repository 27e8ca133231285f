"""Backend registry behaviour: selection, fallback, cache hygiene.

The native backend must never make the toolkit worse: a host without a
compiler degrades to numpy with exactly one :class:`RuntimeWarning` and
a labelled fallback counter, a corrupt cached library is rebuilt rather
than loaded, and every selection surface (config knob, environment
variable, explicit resolve) lands on a backend whose results the
equivalence suite pins bitwise to the reference.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro import obs
from repro.core.config import RAPMinerConfig
from repro.core.stacked import stacked_key_dtype
from repro.native import (
    FALLBACK_EVENTS,
    KernelBackend,
    NativeBuildError,
    NumpyBackend,
    backend_info,
    coerce_backend,
    find_compiler,
    get_default_backend,
    resolve_backend,
    set_default_backend,
)
from repro.native import backend as backend_module
from repro.native import build as build_module
from repro.native.backend import _stacked_key_dtype


@pytest.fixture(autouse=True)
def registry_reset():
    """Each test sees (and leaves behind) a fresh registry."""
    backend_module._reset_registry_for_tests()
    yield
    backend_module._reset_registry_for_tests()


def _break_compiler(monkeypatch):
    """Point compiler discovery at nothing so native resolution must fail."""
    monkeypatch.setenv("RAPMINER_CC", "/nonexistent/definitely-not-a-compiler")
    # A previously cached library would satisfy load_library() without a
    # compiler only if the compiler identity were known; with discovery
    # broken the loader raises before touching the cache.
    assert find_compiler() is None


# -- selection ---------------------------------------------------------------


def test_numpy_resolution_is_the_reference_instance():
    backend = resolve_backend("numpy")
    assert isinstance(backend, NumpyBackend)
    assert backend.name == "numpy"
    assert backend.info() == {"backend": "numpy"}


def test_env_var_drives_the_default(monkeypatch):
    monkeypatch.setenv("RAPMINER_BACKEND", "numpy")
    assert get_default_backend().name == "numpy"


def test_env_var_rejects_unknown_names(monkeypatch):
    monkeypatch.setenv("RAPMINER_BACKEND", "fortran")
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend(None)


def test_set_default_backend_pins_and_unpins(monkeypatch):
    monkeypatch.setenv("RAPMINER_BACKEND", "numpy")
    pinned = set_default_backend("numpy")
    assert get_default_backend() is pinned
    # ``None`` re-reads the environment rather than keeping the pin.
    monkeypatch.setenv("RAPMINER_BACKEND", "numpy")
    assert set_default_backend(None).name == "numpy"


def test_coerce_backend_accepts_instances_names_and_none(monkeypatch):
    monkeypatch.setenv("RAPMINER_BACKEND", "numpy")
    instance = NumpyBackend()
    assert coerce_backend(instance) is instance
    assert coerce_backend("numpy").name == "numpy"
    assert isinstance(coerce_backend(None), KernelBackend)


def test_config_validates_backend_names():
    assert RAPMinerConfig(backend="numpy").backend == "numpy"
    assert RAPMinerConfig(backend=None).backend is None
    with pytest.raises(ValueError, match="backend must be one of"):
        RAPMinerConfig(backend="fortran")


def test_backend_info_reports_identity(monkeypatch):
    monkeypatch.setenv("RAPMINER_BACKEND", "numpy")
    assert backend_info()["backend"] == "numpy"


# -- graceful degradation ----------------------------------------------------


def test_no_compiler_falls_back_with_one_warning_and_a_counter(monkeypatch):
    _break_compiler(monkeypatch)
    with obs.capture() as collector:
        with pytest.warns(RuntimeWarning, match="falling back to the numpy"):
            backend = resolve_backend("native")
        assert backend.name == "numpy"
        assert ("native", "no_compiler") in FALLBACK_EVENTS
        # The second resolution degrades silently: the counter still
        # moves, the process-wide warning does not repeat.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_backend("auto").name == "numpy"
    assert collector.metrics.value(
        "engine_backend_fallback_total", {"reason": "no_compiler"}
    ) == 2.0


def test_auto_spec_degrades_without_raising(monkeypatch):
    _break_compiler(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert resolve_backend("auto").name == "numpy"
        assert get_default_backend().name == "numpy"


def test_strict_resolution_propagates_the_build_error(monkeypatch):
    _break_compiler(monkeypatch)
    with pytest.raises(NativeBuildError) as excinfo:
        resolve_backend("native", strict=True)
    assert excinfo.value.reason == "no_compiler"


def test_numpy_spec_never_warns_without_a_compiler(monkeypatch):
    _break_compiler(monkeypatch)
    monkeypatch.setenv("RAPMINER_BACKEND", "numpy")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert get_default_backend().name == "numpy"
    assert FALLBACK_EVENTS == []


def _tiny_dataset(schema):
    from repro.data.dataset import FineGrainedDataset

    rng = np.random.default_rng(3)
    codes = np.stack(
        [rng.integers(0, s, size=32) for s in schema.sizes], axis=1
    ).astype(np.int64)
    return FineGrainedDataset(
        schema, codes, rng.random(32), rng.random(32), rng.random(32) < 0.25
    )


def test_failed_resolution_is_recorded_once_not_per_engine(
    monkeypatch, four_attr_schema
):
    from repro.core.engine import AggregationEngine

    def no_library():
        raise NativeBuildError("no compiler on this host", reason="no_compiler")

    monkeypatch.setattr(backend_module, "load_library", no_library)
    dataset = _tiny_dataset(four_attr_schema)
    with obs.capture() as collector:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for __ in range(1000):
                engine = AggregationEngine(dataset, backend="native")
                assert engine.backend.name == "numpy"
    assert len(FALLBACK_EVENTS) == 1
    assert collector.metrics.value(
        "engine_backend_fallback_total", {"reason": "no_compiler"}
    ) == 1.0


def test_concurrent_first_resolutions_load_the_library_once(monkeypatch):
    import threading
    import time

    calls = []
    gate = threading.Barrier(8)

    def counting_loader():
        calls.append(threading.get_ident())
        time.sleep(0.02)  # widen the window an unguarded registry races in
        raise NativeBuildError("no compiler on this host", reason="no_compiler")

    monkeypatch.setattr(backend_module, "load_library", counting_loader)
    resolved = []

    def resolve():
        gate.wait()
        resolved.append(resolve_backend("native").name)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        threads = [threading.Thread(target=resolve) for __ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    assert len(calls) == 1
    assert resolved == ["numpy"] * 8
    assert FALLBACK_EVENTS == [("native", "no_compiler")]


# -- build cache -------------------------------------------------------------


def test_corrupt_cached_library_is_rebuilt(tmp_path, monkeypatch):
    compiler = find_compiler()
    if compiler is None:
        pytest.skip("host has no C compiler")
    monkeypatch.setenv("RAPMINER_NATIVE_CACHE", str(tmp_path))
    target = build_module.library_path(
        compiler, build_module.compiler_version(compiler)
    )
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_bytes(b"this is not a shared library")
    backend = resolve_backend("native", strict=True)
    assert backend.name == "native"
    assert backend.info()["compile_seconds"] > 0.0  # rebuilt, not loaded
    keys = np.array([0, 2, 2, 1], dtype=np.int64)
    assert np.array_equal(
        backend.count_bincount(keys, 4), np.array([1, 1, 2, 0])
    )


def test_cache_hit_skips_the_compiler(tmp_path, monkeypatch):
    compiler = find_compiler()
    if compiler is None:
        pytest.skip("host has no C compiler")
    monkeypatch.setenv("RAPMINER_NATIVE_CACHE", str(tmp_path))
    first = resolve_backend("native", strict=True)
    assert first.info()["compile_seconds"] > 0.0
    backend_module._reset_registry_for_tests()
    second = resolve_backend("native", strict=True)
    assert second.info()["compile_seconds"] == 0.0


# -- contracts shared with the core ------------------------------------------


def test_stacked_key_dtype_mirror_matches_core():
    for n_slots, capacity in [
        (0, 0),
        (1, 1),
        (3, 1000),
        (480, 5280),
        (2, 2**31),
        (2**20, 2**20),
    ]:
        assert _stacked_key_dtype(n_slots, capacity) == stacked_key_dtype(
            n_slots, capacity
        ), (n_slots, capacity)


def test_engine_emits_backend_gauge(monkeypatch, four_attr_schema):
    monkeypatch.setenv("RAPMINER_BACKEND", "numpy")
    from repro.core.engine import AggregationEngine
    from repro.data.dataset import FineGrainedDataset

    rng = np.random.default_rng(3)
    codes = np.stack(
        [rng.integers(0, s, size=32) for s in four_attr_schema.sizes], axis=1
    ).astype(np.int64)
    dataset = FineGrainedDataset(
        four_attr_schema,
        codes,
        rng.random(32),
        rng.random(32),
        rng.random(32) < 0.25,
    )
    with obs.capture() as collector:
        engine = AggregationEngine(dataset)
        assert engine.backend.name == "numpy"
    assert collector.metrics.value(
        "engine_backend_info", {"backend": "numpy"}
    ) == 1.0
