"""Discovery Manager scheduling and adaptation tests."""

import json

import pytest

from repro.core import Journal, LocalClient
from repro.core.explorers import SequentialPing
from repro.core.explorers.base import ExplorerModule, RunResult
from repro.core.manager import DEFAULT_INTERVALS, DiscoveryManager
from repro.netsim.sim import Simulator


class FakeModule(ExplorerModule):
    """A controllable module: each run is fruitful or not on demand."""

    name = "SeqPing"  # reuse a known interval table entry
    source = "TEST"

    def __init__(self, sim, *, fruitful_plan=None, duration=10.0):
        self._sim = sim
        self.journal = None
        self.last_result = None
        self.fruitful_plan = list(fruitful_plan or [])
        self.duration = duration
        self.runs = 0

    @property
    def sim(self):
        return self._sim

    def run(self, **directive):
        self.runs += 1
        started = self.sim.now
        self.sim.run_for(self.duration)
        fruitful = self.fruitful_plan.pop(0) if self.fruitful_plan else False
        return RunResult(
            module=self.name,
            started_at=started,
            finished_at=self.sim.now,
            packets_sent=5,
            observations=3,
            changes=1 if fruitful else 0,
        )


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def manager(sim):
    journal = Journal(clock=lambda: sim.now)
    return DiscoveryManager(sim, LocalClient(journal), correlate_after_each=False)


class TestRegistration:
    def test_defaults_from_table4(self, sim, manager):
        module = FakeModule(sim)
        entry = manager.register(module)
        low, high = DEFAULT_INTERVALS["SeqPing"]
        assert entry.min_interval == low
        assert entry.max_interval == high
        assert entry.current_interval == low

    def test_explicit_intervals(self, sim, manager):
        entry = manager.register(
            FakeModule(sim), min_interval=100.0, max_interval=400.0
        )
        assert entry.current_interval == 100.0

    def test_duplicate_key_rejected(self, sim, manager):
        manager.register(FakeModule(sim))
        with pytest.raises(ValueError):
            manager.register(FakeModule(sim))

    def test_bad_interval_order_rejected(self, sim, manager):
        with pytest.raises(ValueError):
            manager.register(
                FakeModule(sim), key="other", min_interval=10.0, max_interval=1.0
            )


class TestScheduling:
    def test_run_next_advances_clock_to_due_time(self, sim, manager):
        manager.register(
            FakeModule(sim), min_interval=100.0, max_interval=400.0, first_due=50.0
        )
        key, result = manager.run_next()
        assert result.started_at == 50.0

    def test_earliest_due_module_runs_first(self, sim, manager):
        a = FakeModule(sim)
        b = FakeModule(sim)
        manager.register(a, key="a", min_interval=10, max_interval=100, first_due=30.0)
        manager.register(b, key="b", min_interval=10, max_interval=100, first_due=20.0)
        key, _result = manager.run_next()
        assert key == "b"

    def test_run_until_executes_all_due(self, sim, manager):
        module = FakeModule(sim, fruitful_plan=[False] * 10)
        manager.register(module, min_interval=100.0, max_interval=100.0, first_due=0.0)
        completed = manager.run_until(350.0)
        # Runs at t=0, 110 (run takes 10 + interval 100), 220, 330.
        assert len(completed) == 4
        assert sim.now == 350.0

    def test_no_modules_raises(self, manager):
        with pytest.raises(RuntimeError):
            manager.run_next()


class TestAdaptation:
    def test_fruitful_run_halves_interval(self, sim, manager):
        module = FakeModule(sim, fruitful_plan=[True])
        entry = manager.register(
            module, min_interval=100.0, max_interval=1600.0
        )
        entry.current_interval = 800.0
        manager.run_next()
        assert entry.current_interval == 400.0

    def test_fruitless_run_doubles_interval(self, sim, manager):
        module = FakeModule(sim, fruitful_plan=[False])
        entry = manager.register(module, min_interval=100.0, max_interval=1600.0)
        entry.current_interval = 200.0
        manager.run_next()
        assert entry.current_interval == 400.0

    def test_interval_clamped_to_bounds(self, sim, manager):
        module = FakeModule(sim, fruitful_plan=[True, False, False, False, False, False])
        entry = manager.register(module, min_interval=100.0, max_interval=400.0)
        manager.run_next()
        assert entry.current_interval == 100.0  # already at min
        for _ in range(5):
            manager.run_next()
        assert entry.current_interval == 400.0  # capped at max

    def test_next_due_follows_interval(self, sim, manager):
        module = FakeModule(sim, fruitful_plan=[False], duration=10.0)
        entry = manager.register(module, min_interval=100.0, max_interval=1600.0)
        manager.run_next()
        assert entry.next_due == sim.now + 200.0


class TestHistoryFile:
    def test_state_saved_and_restored(self, sim, tmp_path):
        path = str(tmp_path / "history.json")
        journal = Journal(clock=lambda: sim.now)
        manager = DiscoveryManager(
            sim, LocalClient(journal), state_path=path, correlate_after_each=False
        )
        module = FakeModule(sim, fruitful_plan=[False, False])
        manager.register(module, min_interval=100.0, max_interval=1600.0)
        manager.run_next()
        manager.run_next()

        with open(path) as handle:
            state = json.load(handle)
        assert state["format"] == "fremont-manager-2"
        assert state["modules"]["SeqPing"]["current_interval"] == 400.0
        assert len(state["modules"]["SeqPing"]["history"]) == 2

        # A fresh manager restores the adapted interval.
        sim2 = Simulator()
        journal2 = Journal(clock=lambda: sim2.now)
        manager2 = DiscoveryManager(
            sim2, LocalClient(journal2), state_path=path, correlate_after_each=False
        )
        entry = manager2.register(
            FakeModule(sim2), min_interval=100.0, max_interval=1600.0
        )
        assert entry.current_interval == 400.0
        assert len(entry.history) == 2

    def test_restored_interval_clamped_to_new_bounds(self, sim, tmp_path):
        path = str(tmp_path / "history.json")
        journal = Journal(clock=lambda: sim.now)
        manager = DiscoveryManager(
            sim, LocalClient(journal), state_path=path, correlate_after_each=False
        )
        manager.register(
            FakeModule(sim, fruitful_plan=[False] * 4),
            min_interval=100.0,
            max_interval=1600.0,
        )
        for _ in range(4):
            manager.run_next()

        sim2 = Simulator()
        manager2 = DiscoveryManager(
            sim2,
            LocalClient(Journal(clock=lambda: sim2.now)),
            state_path=path,
            correlate_after_each=False,
        )
        entry = manager2.register(
            FakeModule(sim2), min_interval=100.0, max_interval=800.0
        )
        assert entry.current_interval <= 800.0

    def test_history_truncated(self, sim, manager):
        module = FakeModule(sim, fruitful_plan=[False] * 30)
        entry = manager.register(module, min_interval=1.0, max_interval=2.0)
        for _ in range(25):
            manager.run_next()
        assert len(entry.history) == 20

    def test_history_keep_configurable(self, sim):
        journal = Journal(clock=lambda: sim.now)
        manager = DiscoveryManager(
            sim, LocalClient(journal), correlate_after_each=False, history_keep=5
        )
        entry = manager.register(FakeModule(sim), min_interval=1.0, max_interval=2.0)
        for _ in range(12):
            manager.run_next()
        assert len(entry.history) == 5

    def test_history_keep_validated(self, sim):
        journal = Journal(clock=lambda: sim.now)
        with pytest.raises(ValueError):
            DiscoveryManager(sim, LocalClient(journal), history_keep=0)

    def test_history_cap_survives_state_round_trips(self, sim, tmp_path):
        """The ledger must not grow without bound across repeated
        save/restore cycles of the fremont-manager-2 file."""
        path = str(tmp_path / "history.json")
        for generation in range(4):
            sim_n = Simulator()
            journal = Journal(clock=lambda: sim_n.now)
            manager = DiscoveryManager(
                sim_n,
                LocalClient(journal),
                state_path=path,
                correlate_after_each=False,
                history_keep=6,
            )
            entry = manager.register(
                FakeModule(sim_n), min_interval=1.0, max_interval=2.0
            )
            for _ in range(10):
                manager.run_next()
            assert len(entry.history) == 6
        with open(path) as handle:
            state = json.load(handle)
        assert len(state["modules"]["SeqPing"]["history"]) == 6

    def test_restore_trims_oversized_ledger(self, sim, tmp_path):
        """A file written by a build with a larger (or absent) cap
        shrinks to the configured cap on load."""
        path = str(tmp_path / "history.json")
        journal = Journal(clock=lambda: sim.now)
        manager = DiscoveryManager(
            sim, LocalClient(journal), state_path=path, correlate_after_each=False
        )
        manager.register(FakeModule(sim), min_interval=1.0, max_interval=2.0)
        for _ in range(15):
            manager.run_next()
        with open(path) as handle:
            assert len(json.load(handle)["modules"]["SeqPing"]["history"]) == 15

        sim2 = Simulator()
        manager2 = DiscoveryManager(
            sim2,
            LocalClient(Journal(clock=lambda: sim2.now)),
            state_path=path,
            correlate_after_each=False,
            history_keep=4,
        )
        entry = manager2.register(FakeModule(sim2))
        assert len(entry.history) == 4
        # ... and it kept the *newest* entries, not the oldest.
        with open(path) as handle:
            persisted = json.load(handle)["modules"]["SeqPing"]["history"]
        assert entry.history == persisted[-4:]

    def test_save_state_is_atomic(self, sim, tmp_path, monkeypatch):
        path = str(tmp_path / "history.json")
        journal = Journal(clock=lambda: sim.now)
        manager = DiscoveryManager(
            sim, LocalClient(journal), state_path=path, correlate_after_each=False
        )
        manager.register(FakeModule(sim), min_interval=1.0, max_interval=2.0)
        manager.run_next()
        with open(path, "rb") as handle:
            before = handle.read()

        import os

        def boom(src, dst):
            raise OSError("injected crash during rename")

        # Fail at the last step of the temp-file protocol: the data was
        # fully written but never atomically moved into place.
        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            manager.save_state()
        with open(path, "rb") as handle:
            assert handle.read() == before  # previous file untouched
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "history.json"]
        assert leftovers == []


class TestDirectiveFactories:
    def test_callable_directives_evaluated_at_run_time(self, sim, manager):
        """'The Discovery Manager interrogates the Journal ... to direct
        further discovery': directives computed when the module runs."""
        seen = []

        class Capture(FakeModule):
            name = "SeqPing"

            def run(self, **directive):
                seen.append(directive)
                return super().run()

        state = {"targets": ["a"]}
        module = Capture(sim, fruitful_plan=[False, False])
        manager.register(
            module,
            min_interval=50.0,
            max_interval=50.0,
            directive={"targets": lambda: list(state["targets"]), "fixed": 7},
        )
        manager.run_next()
        state["targets"].append("b")  # the journal learned something new
        manager.run_next()
        assert seen[0]["targets"] == ["a"]
        assert seen[1]["targets"] == ["a", "b"]
        assert all(call["fixed"] == 7 for call in seen)


class TestRealModuleIntegration:
    def test_seqping_through_manager(self, small_net):
        net, left, right, gateway, hosts = small_net
        journal = Journal(clock=lambda: net.sim.now)
        client = LocalClient(journal)
        monitor = net.add_host(left, name="monitor", index=200, activity_rate=0.0)
        manager = DiscoveryManager(net.sim, client)
        manager.register(
            SequentialPing(monitor, client),
            directive={"addresses": [hosts["a1"].ip, hosts["a2"].ip]},
        )
        key, result = manager.run_next()
        assert key == "SeqPing"
        assert result.discovered["interfaces"] == 2
        assert journal.counts()["interfaces"] == 2


class TestAdaptationEdgeCases:
    def test_fruitful_at_min_stays_clamped(self, sim, manager):
        module = FakeModule(sim, fruitful_plan=[True, True])
        entry = manager.register(module, min_interval=100.0, max_interval=1600.0)
        assert entry.current_interval == 100.0
        manager.run_next()
        assert entry.current_interval == 100.0
        manager.run_next()
        assert entry.current_interval == 100.0

    def test_fruitless_at_max_stays_clamped(self, sim, manager):
        module = FakeModule(sim, fruitful_plan=[False, False])
        entry = manager.register(module, min_interval=100.0, max_interval=1600.0)
        entry.current_interval = 1600.0
        manager.run_next()
        assert entry.current_interval == 1600.0
        manager.run_next()
        assert entry.current_interval == 1600.0
        assert entry.next_due == sim.now + 1600.0

    def test_pinned_interval_never_moves(self, sim, manager):
        """min == max pins the schedule regardless of fruitfulness."""
        module = FakeModule(sim, fruitful_plan=[True, False, True, False])
        entry = manager.register(module, min_interval=500.0, max_interval=500.0)
        for _ in range(4):
            manager.run_next()
            assert entry.current_interval == 500.0

    def test_restored_interval_clamped_up_to_new_min(self, sim, tmp_path):
        path = str(tmp_path / "history.json")
        journal = Journal(clock=lambda: sim.now)
        manager = DiscoveryManager(
            sim, LocalClient(journal), state_path=path, correlate_after_each=False
        )
        # Fruitful runs drive the persisted interval down to 100.
        manager.register(
            FakeModule(sim, fruitful_plan=[True] * 3),
            min_interval=100.0,
            max_interval=1600.0,
        )
        for _ in range(3):
            manager.run_next()

        sim2 = Simulator()
        manager2 = DiscoveryManager(
            sim2,
            LocalClient(Journal(clock=lambda: sim2.now)),
            state_path=path,
            correlate_after_each=False,
        )
        entry = manager2.register(
            FakeModule(sim2), min_interval=300.0, max_interval=1600.0
        )
        assert entry.current_interval == 300.0

    def test_persisted_schedule_round_trips(self, sim, tmp_path):
        path = str(tmp_path / "history.json")
        journal = Journal(clock=lambda: sim.now)
        manager = DiscoveryManager(
            sim, LocalClient(journal), state_path=path, correlate_after_each=False
        )
        manager.register(
            FakeModule(sim, fruitful_plan=[True, False, False]),
            min_interval=100.0,
            max_interval=1600.0,
        )
        for _ in range(3):
            manager.run_next()
        with open(path) as handle:
            saved = json.load(handle)["modules"]["SeqPing"]

        # A restart with the same bounds restores the adapted schedule
        # exactly; saving again reproduces it unchanged.
        sim2 = Simulator()
        manager2 = DiscoveryManager(
            sim2,
            LocalClient(Journal(clock=lambda: sim2.now)),
            state_path=path,
            correlate_after_each=False,
        )
        entry = manager2.register(
            FakeModule(sim2), min_interval=100.0, max_interval=1600.0
        )
        assert entry.current_interval == saved["current_interval"]
        assert entry.history == saved["history"]
        manager2.save_state()
        with open(path) as handle:
            resaved = json.load(handle)["modules"]["SeqPing"]
        assert resaved["current_interval"] == saved["current_interval"]
        assert resaved["history"] == saved["history"]


class ObservingModule(FakeModule):
    """A module that actually writes to the journal, so the manager's
    per-run correlation has a delta to consume."""

    def __init__(self, sim, client, **kwargs):
        super().__init__(sim, **kwargs)
        self.client = client
        self.serial = 0

    def run(self, **directive):
        from repro.core.records import Observation

        self.serial += 1
        self.client.observe_interface(
            Observation(
                source="TEST",
                ip=f"10.7.{self.serial}.1",
                mac=f"08:00:20:07:00:{self.serial:02x}",
            )
        )
        return super().run(**directive)


class TestCorrelationWiring:
    def test_manager_correlates_incrementally(self, sim):
        journal = Journal(clock=lambda: sim.now)
        client = LocalClient(journal)
        manager = DiscoveryManager(sim, client)
        manager.register(
            ObservingModule(sim, client, fruitful_plan=[True] * 3),
            min_interval=100.0,
            max_interval=1600.0,
        )
        manager.run_next()
        assert manager.last_correlation_report.mode == "full"
        assert manager.last_correlated_revision == journal.revision
        manager.run_next()
        assert manager.last_correlation_report.mode == "incremental"
        assert manager.last_correlated_revision == journal.revision
        # The watermark advanced with the journal.
        assert manager.last_correlated_revision > 0


class TestBatchingSinkJournal:
    def test_manager_correlates_through_a_batching_sink(self, small_net):
        """Regression: the manager looked for the in-process Journal on
        a ``journal`` attribute, which a batching sink does not have, so
        a campaign over one was never correlated."""
        from repro.core import connect

        net, left, _right, _gateway, hosts = small_net
        journal = Journal(clock=lambda: net.sim.now)
        sink = connect(journal, batching=True)
        monitor = net.add_host(left, name="monitor", index=200, activity_rate=0.0)
        manager = DiscoveryManager(net.sim, sink)
        manager.register(
            SequentialPing(monitor, sink),
            directive={"addresses": [hosts["a1"].ip, hosts["a2"].ip]},
        )
        manager.run_next()
        assert journal.counts()["interfaces"] == 2
        assert manager.last_correlation_report is not None
        assert manager.last_correlated_revision == journal.revision
