"""Tests for the ML module state machine."""

import pytest

from repro.simulation.modules import MLModule, ModuleState


class TestLifecycle:
    def test_starts_healthy(self):
        assert MLModule(0).state is ModuleState.HEALTHY

    def test_full_fault_cycle(self):
        module = MLModule(0)
        module.compromise()
        assert module.state is ModuleState.COMPROMISED
        module.fail()
        assert module.state is ModuleState.FAILED
        module.repair()
        assert module.state is ModuleState.HEALTHY

    def test_rejuvenation_from_healthy(self):
        module = MLModule(0)
        module.start_rejuvenation()
        assert module.state is ModuleState.REJUVENATING
        module.finish_rejuvenation()
        assert module.state is ModuleState.HEALTHY

    def test_rejuvenation_from_compromised(self):
        module = MLModule(0)
        module.compromise()
        module.start_rejuvenation()
        module.finish_rejuvenation()
        assert module.state is ModuleState.HEALTHY


class TestInvalidTransitions:
    def test_cannot_fail_while_healthy(self):
        with pytest.raises(ValueError, match="expected compromised"):
            MLModule(0).fail()

    def test_cannot_repair_operational(self):
        with pytest.raises(ValueError):
            MLModule(0).repair()

    def test_cannot_rejuvenate_failed(self):
        module = MLModule(0)
        module.compromise()
        module.fail()
        with pytest.raises(ValueError, match="cannot rejuvenate"):
            module.start_rejuvenation()

    def test_cannot_compromise_twice(self):
        module = MLModule(0)
        module.compromise()
        with pytest.raises(ValueError):
            module.compromise()


class TestOperationalFlag:
    def test_operational_states(self):
        module = MLModule(0)
        assert module.is_operational
        module.compromise()
        assert module.is_operational
        module.fail()
        assert not module.is_operational
