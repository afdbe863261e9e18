"""Reproducibility: the whole study is a pure function of the seed."""

import hashlib

from repro import WideLeakStudy

# sha256 of the default study's to_json(): every signature, MAC, KDF
# context, counter and Table I cell feeds it.
STUDY_SHA256 = "b5f3bf2ba4c001590124a3450607036a82a9394b49799adf4f2c460b87947ba5"


class TestDeterminism:
    def test_two_study_runs_are_bit_identical(self):
        first = WideLeakStudy.with_default_apps().run().to_json()
        second = WideLeakStudy.with_default_apps().run().to_json()
        assert first == second

    def test_default_study_artifact_is_pinned(self):
        artifact = WideLeakStudy.with_default_apps().run().to_json()
        assert hashlib.sha256(artifact.encode()).hexdigest() == STUDY_SHA256

    def test_default_study_counters_are_pinned(self):
        """The artifact's bus counters are a function of the study
        inputs; a change to what an exchange counts shows here."""
        result = WideLeakStudy.with_default_apps().run()
        assert result.summary()["observability"]["counters"] == {
            "cdm.licenses_loaded": 18,
            "cdm.provisionings": 16,
            "cdn.bytes_served": 934969,
            "cdn.segments_served": 648,
            "flow.arrows": 1524,
            "http.bytes_in": 1008178,
            "http.bytes_out": 24254,
            "http.requests": 728,
            "http.status.200": 723,
            "http.status.403": 3,
            "http.status.451": 2,
            "license.issued": 18,
            "oecc.dumps": 109,
            "package.segments": 300,
            "package.titles": 10,
            "playback.frames": 768,
            "provision.denied": 3,
            "provision.issued": 16,
            "proxy.bytes_captured": 310888,
            "proxy.flows": 199,
        }

    def test_attack_recovers_identical_keys_across_worlds(self):
        from repro.ott.registry import profile_by_name

        keys = []
        for _ in range(2):
            study = WideLeakStudy.with_default_apps()
            outcome = study.run_attack(profile_by_name("Showtime"))
            keys.append(
                sorted(
                    (kid.hex(), key.hex())
                    for kid, key in outcome.attack.content_keys.items()
                )
            )
        assert keys[0] == keys[1] and keys[0]


class TestTopLevelApi:
    def test_lazy_imports(self):
        import repro

        assert repro.WideLeakStudy is WideLeakStudy
        assert repro.TableOne.__name__ == "TableOne"
        assert repro.__version__ == "1.0.0"

    def test_unknown_attribute(self):
        import pytest
        import repro

        with pytest.raises(AttributeError):
            repro.not_a_thing
