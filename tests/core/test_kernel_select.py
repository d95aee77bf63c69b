"""Kernel selection semantics: ``Simulator(kernel=...)``, the
``REPRO_KERNEL`` environment override and the strict explicit-``"c"``
contract."""

import pytest

from repro.core import Simulator
from repro.core.engine import (KERNELS, ckernel_available, default_kernel,
                               resolve_kernel)
from repro.core.errors import SimulationError

HAVE_C = ckernel_available()
needs_c = pytest.mark.skipif(not HAVE_C,
                             reason="compiled kernel not built")
needs_no_c = pytest.mark.skipif(HAVE_C,
                                reason="compiled kernel is built")


class TestResolveKernel:
    def test_python_always_resolves(self):
        assert resolve_kernel("python") == "python"
        assert Simulator(kernel="python").kernel == "python"

    def test_unknown_kernel_raises(self):
        with pytest.raises(SimulationError, match="unknown kernel"):
            resolve_kernel("rust")
        with pytest.raises(SimulationError, match="unknown kernel"):
            Simulator(kernel="rust")

    def test_auto_resolves_to_a_concrete_kernel(self):
        assert resolve_kernel("auto") == ("c" if HAVE_C else "python")
        assert Simulator(kernel="auto").kernel in ("python", "c")

    def test_kernels_tuple_exposed_on_simulator(self):
        assert Simulator.KERNELS == KERNELS == ("auto", "python", "c")

    @needs_c
    def test_explicit_c_selects_compiled_loop(self):
        sim = Simulator(kernel="c")
        assert sim.kernel == "c"
        assert sim._ckernel_run is not None

    @needs_no_c
    def test_explicit_c_without_extension_is_an_error(self):
        # An explicit request must never silently run the other kernel:
        # CI's REPRO_KERNEL=c lane relies on this to prove the compiled
        # path actually executed.
        with pytest.raises(SimulationError, match="build_kernel"):
            resolve_kernel("c")


class TestEnvOverride:
    def test_env_sets_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "python")
        assert default_kernel() == "python"
        assert Simulator().kernel == "python"
        monkeypatch.delenv("REPRO_KERNEL")
        assert default_kernel() == "auto"

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "auto")
        assert Simulator(kernel="python").kernel == "python"

    def test_unknown_env_kernel_raises_at_construction(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "fast")
        with pytest.raises(SimulationError, match="unknown kernel"):
            Simulator()


@needs_c
class TestStrictCKernelRuns:
    def test_c_kernel_reentrancy_guard(self):
        sim = Simulator(kernel="c")
        seen = []

        def reenter():
            with pytest.raises(SimulationError, match="re-entrantly"):
                sim.run()
            seen.append(sim.now)

        sim.schedule(0.1, reenter)
        sim.run()
        assert seen == [0.1]

    def test_c_kernel_strict_after_env_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "c")
        assert Simulator().kernel == "c"
