"""Analysis + cross-check wired through the full study pipeline."""

from __future__ import annotations

import json

import pytest

from repro.core.report import CrossCheckTable
from repro.core.study import StudyResult


class TestStudyIntegration:
    def test_every_app_carries_analysis_and_crosscheck(self, study_result):
        for name, app in study_result.apps.items():
            assert app.analysis is not None, name
            assert app.crosscheck is not None, name
            assert app.analysis.call_sites, name

    def test_every_app_has_confirmed_and_dead_sites(self, study_result):
        for name, app in study_result.apps.items():
            counts = app.crosscheck.counts()
            assert counts["confirmed"] > 0, name
            assert counts["dead_code"] > 0, name

    def test_netflix_secure_channel_is_the_dynamic_only_story(
        self, study_result
    ):
        netflix = study_result.apps["Netflix"]
        assert netflix.crosscheck.dynamic_only == ("_oecc31_generic_decrypt",)
        others = [
            app.crosscheck.dynamic_only
            for name, app in study_result.apps.items()
            if name != "Netflix"
        ]
        assert all(dynamic == () for dynamic in others)

    def test_discontinued_device_profiles_show_cwe_922(self, study_result):
        """Acceptance: a reachable CWE-922 finding on apps the paper
        found serving (or custom-DRM-serving) the discontinued device."""
        for name in ("Netflix", "Amazon Prime Video", "myCanal", "Salto"):
            findings = study_result.apps[name].analysis.findings_by_cwe(
                "CWE-922"
            )
            assert findings, name
            assert any(f.reachable for f in findings), name

    def test_summary_counts_leaks_and_dead_code(self, study_result):
        summary = study_result.summary()
        assert "Netflix" in summary["apps_with_reachable_key_leaks"]
        assert len(summary["apps_with_dead_drm_code"]) == 10

    def test_crosscheck_table_has_one_row_per_app(self, study_result):
        table = study_result.crosscheck_table()
        assert isinstance(table, CrossCheckTable)
        assert len(table.rows) == len(study_result.apps)
        rendered = table.render()
        assert "Confirmed" in rendered and "Netflix" in rendered

    def test_json_artifact_carries_analysis_and_crosscheck(self, study_result):
        payload = json.loads(study_result.to_json())
        netflix = payload["apps"]["Netflix"]
        assert netflix["analysis"]["drm_call_sites"]["dead"] >= 1
        assert netflix["crosscheck"]["confirmed"] > 0
        assert netflix["crosscheck"]["dynamic_only_functions"] == [
            "_oecc31_generic_decrypt"
        ]


class TestCrossCheckRow:
    def test_analysis_and_crosscheck_are_required(self):
        """``WideLeakStudy.study_app`` always analyses the APK and
        cross-checks it, so a result without either cannot be built."""
        import dataclasses

        from repro.core.study import AppStudyResult

        required = {
            f.name
            for f in dataclasses.fields(AppStudyResult)
            if f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        }
        assert {"analysis", "crosscheck"} <= required
        with pytest.raises(TypeError, match="analysis"):
            AppStudyResult(None, None, None, None, None)
