"""Tests for the uniform system-under-test harness."""

import pytest

from repro.harness.runner import SOLUTIONS, build_system, run_trace
from repro.workloads.generators import append_write_trace, random_write_trace


class TestBuildSystem:
    @pytest.mark.parametrize("name", SOLUTIONS)
    def test_all_solutions_construct(self, name):
        system = build_system(name)
        assert system.name == name
        system.fs.create("/probe")
        assert system.fs.exists("/probe")

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            build_system("icloud")

    def test_counters_reset(self):
        system = build_system("deltacfs")
        system.fs.create("/f")
        system.fs.write("/f", 0, b"x" * 1000)
        system.flush()
        assert system.channel.stats.up_bytes > 0
        system.reset_counters()
        assert system.channel.stats.up_bytes == 0
        assert system.client_meter.total == 0


class TestRunTrace:
    @pytest.mark.parametrize("name", SOLUTIONS)
    def test_append_trace_converges(self, name):
        trace = append_write_trace(scale=64, appends=5)
        result = run_trace(name, trace)
        assert result.solution == name
        assert result.up_bytes > 0
        # every system must leave the server with the complete file
        # (verified through a fresh run to inspect the server)
        system = build_system(name)
        from repro.workloads.traces import replay

        system.preload(trace)
        replay(trace, system.fs, system.clock, pump=system.pump)
        system.flush()
        assert system.server.store.get("/append.dat").content is not None
        assert (
            len(system.server.store.get("/append.dat").content)
            == trace.stats.bytes_written
        )

    def test_preload_not_counted(self):
        trace = random_write_trace(scale=64, writes=3)
        result = run_trace("deltacfs", trace)
        # preloaded 320KB file must not appear in measured traffic
        assert result.up_bytes < 50_000

    def test_extra_stats_for_deltacfs(self):
        trace = append_write_trace(scale=64, appends=3)
        result = run_trace("deltacfs", trace)
        assert "deltas_triggered" in result.extra

    def test_server_content_matches_across_solutions(self):
        trace = random_write_trace(scale=64, writes=5)
        contents = {}
        for name in SOLUTIONS:
            system = build_system(name)
            from repro.workloads.traces import replay

            system.preload(trace)
            replay(trace, system.fs, system.clock, pump=system.pump)
            for _ in range(10):
                system.clock.advance(1.0)
                system.pump(system.clock.now())
            system.flush()
            contents[name] = system.server.store.get("/random.dat").content
        assert len(set(contents.values())) == 1, {
            k: len(v) for k, v in contents.items()
        }
