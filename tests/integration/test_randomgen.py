"""The random-protocol sampler and the fuzzing audit."""

import pytest

import repro.randomgen as randomgen
from repro.core.selfdisabling import is_self_disabling
from repro.core.convergence import check_local_closure
from repro.engine import ResultCache, analysis_key
from repro.randomgen import (
    AuditReport,
    Discrepancy,
    ProtocolSampler,
    audit_theorems,
)


def _sample_keys(seed: int, samples: int) -> list[tuple[str, str]]:
    """``(audit key, listing)`` of each sample the audit draws."""
    sampler = ProtocolSampler(seed=seed)
    protocols = [sampler.sample() for _ in range(samples)]
    return [(analysis_key("audit-sample", p, max_ring_size=5), p.pretty())
            for p in protocols]


class TestSampler:
    def test_deterministic_per_seed(self):
        first = [ProtocolSampler(seed=7).sample().pretty()
                 for _ in range(5)]
        second = [ProtocolSampler(seed=7).sample().pretty()
                  for _ in range(5)]
        assert first == second

    def test_samples_are_self_disabling(self):
        sampler = ProtocolSampler(seed=3)
        for _ in range(25):
            protocol = sampler.sample()
            assert is_self_disabling(protocol.space)

    def test_restricted_samples_respect_closure(self):
        sampler = ProtocolSampler(seed=5, restrict_sources_to_bad=True)
        for _ in range(25):
            protocol = sampler.sample()
            for transition in protocol.space.transitions:
                assert not protocol.is_legitimate(transition.source)
            assert check_local_closure(protocol)

    def test_unrestricted_samples_may_touch_legit_states(self):
        sampler = ProtocolSampler(seed=1, restrict_sources_to_bad=False,
                                  max_transitions=8)
        touched = False
        for _ in range(50):
            protocol = sampler.sample()
            if any(protocol.is_legitimate(t.source)
                   for t in protocol.space.transitions):
                touched = True
                break
        assert touched

    def test_domain_bounds_validated(self):
        with pytest.raises(ValueError):
            ProtocolSampler(min_domain=1)
        with pytest.raises(ValueError):
            ProtocolSampler(min_domain=4, max_domain=3)

    def test_domains_within_range(self):
        sampler = ProtocolSampler(seed=0, min_domain=2, max_domain=3)
        for _ in range(20):
            domain = sampler.sample().process.variables[0].domain
            assert len(domain) in (2, 3)


class TestAudit:
    def test_audit_is_clean(self):
        report = audit_theorems(samples=20, max_ring_size=4, seed=11)
        assert report.clean
        assert report.samples == 20
        assert report.deadlock_checks == 20 * 3  # K = 2, 3, 4
        assert "CLEAN" in report.summary()

    def test_audit_counts_certificates(self):
        report = audit_theorems(samples=30, max_ring_size=4, seed=2)
        assert 0 < report.certificates_issued <= 30

    def test_custom_sampler_accepted(self):
        sampler = ProtocolSampler(seed=9, max_transitions=3)
        report = audit_theorems(samples=10, max_ring_size=3,
                                sampler=sampler)
        assert report.clean

    def test_each_distinct_protocol_is_audited_once(self, tmp_path):
        assert len({key for key, _ in _sample_keys(1, 40)}) == 37
        cache = ResultCache(tmp_path)
        report = audit_theorems(samples=40, seed=1, cache=cache)
        assert report.stats.work_items == 37
        assert (cache.stats.misses, cache.stats.stores) == (37, 37)
        # The report still counts every sample, repeats included.
        assert (report.samples, report.certificates_issued,
                report.deadlock_checks, report.discrepancies) \
            == (40, 37, 160, [])
        warm = audit_theorems(samples=40, seed=1, cache=ResultCache(tmp_path))
        assert warm.stats.cache_hits == 37 and warm.stats.work_items == 0
        assert warm == report

    def test_repeats_carry_the_first_samples_discrepancy(self,
                                                         monkeypatch):
        def disagree(max_ring_size, protocol):
            return randomgen._SampleOutcome(
                certified=False, deadlock_checks=1,
                discrepancies=(Discrepancy("theorem-4.2-mismatch", 2,
                                           protocol.pretty()),))

        monkeypatch.setattr(randomgen, "_audit_one", disagree)
        report = audit_theorems(samples=40, seed=1)
        samples = _sample_keys(1, 40)
        first: dict[str, str] = {}
        for key, listing in samples:
            first.setdefault(key, listing)
        assert [d.protocol_listing for d in report.discrepancies] \
            == [first[key] for key, _ in samples]
        assert report.stats.work_items == 37

    def test_discrepancy_rendering(self):
        report = AuditReport(samples=1, certificates_issued=0,
                             deadlock_checks=1)
        report.discrepancies.append(
            Discrepancy("theorem-4.2-mismatch", 4, "protocol p"))
        assert not report.clean
        assert "1 DISCREPANCIES" in report.summary()
