"""PlanRequest/PlanResult JSON round-trips and pre-façade import paths."""

import json

import pytest

from repro.api import Planner, PlanRequest, PlanResult
from repro.exceptions import ReproError
from repro.io.serialization import (
    plan_request_from_dict,
    plan_request_to_dict,
    plan_result_from_dict,
    plan_result_to_dict,
    save_json,
)


class TestPlanRequestRoundTrip:
    def test_round_trip_through_json(self, fig1_mset):
        request = PlanRequest(
            instance=fig1_mset,
            solver="exact(max_destinations=12)",
            options={"node_budget": 500},
            include_bounds=True,
            tag="rt",
        )
        payload = json.loads(json.dumps(plan_request_to_dict(request)))
        back = plan_request_from_dict(payload)
        assert back == request

    def test_methods_delegate(self, fig1_mset):
        request = PlanRequest(instance=fig1_mset)
        assert PlanRequest.from_dict(request.to_dict()) == request

    def test_format_checked(self, fig1_mset):
        with pytest.raises(ReproError, match="plan-request"):
            plan_request_from_dict({"format": "repro/schedule-v1"})

    def test_defaults_fill_in(self, fig1_mset):
        data = plan_request_to_dict(PlanRequest(instance=fig1_mset))
        del data["options"], data["tag"]
        back = plan_request_from_dict(data)
        assert back.options == {} and back.tag is None

    def test_rejects_non_instance(self):
        with pytest.raises(ReproError, match="MulticastSet"):
            PlanRequest(instance="nope")


class TestPlanResultRoundTrip:
    @pytest.mark.parametrize("solver,include_bounds", [
        ("greedy", True),
        ("dp", False),
    ])
    def test_round_trip_through_json(self, fig1_mset, solver, include_bounds):
        result = Planner().plan(
            PlanRequest(instance=fig1_mset, solver=solver,
                        include_bounds=include_bounds, tag="x")
        )
        payload = json.loads(json.dumps(plan_result_to_dict(result)))
        back = plan_result_from_dict(payload)
        assert back.solver == result.solver
        assert back.value == result.value
        assert back.schedule == result.schedule
        assert back.bounds == result.bounds
        assert back.exact == result.exact
        assert back.tag == "x"
        assert dict(back.provenance) == dict(result.provenance)

    def test_methods_delegate(self, fig1_mset):
        result = Planner().plan(fig1_mset)
        back = PlanResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert back.value == result.value

    def test_format_checked(self):
        with pytest.raises(ReproError, match="plan-result"):
            plan_result_from_dict({"format": "bogus"})

    def test_save_json_accepts_plan_records(self, fig1_mset, tmp_path):
        request = PlanRequest(instance=fig1_mset, solver="dp")
        result = Planner().plan(request)
        req_path = save_json(request, tmp_path / "request.json")
        res_path = save_json(result, tmp_path / "result.json")
        assert plan_request_from_dict(json.loads(req_path.read_text())) == request
        loaded = plan_result_from_dict(json.loads(res_path.read_text()))
        assert loaded.value == result.value


class TestDeprecationShims:
    @pytest.mark.parametrize("name,home", [
        ("get_scheduler", "repro.algorithms.registry"),
        ("available_schedulers", "repro.algorithms.registry"),
        ("scheduler_items", "repro.algorithms.registry"),
        ("solve_dp", "repro.core.dp"),
        ("solve_exact", "repro.core.brute_force"),
    ])
    def test_legacy_names_live_only_at_their_home(self, name, home):
        # the expired repro.api shims are gone; the callables they
        # forwarded to stay importable from their own modules
        import importlib

        import repro.api

        with pytest.raises(AttributeError):
            getattr(repro.api, name)
        assert name not in repro.api.__all__
        assert callable(getattr(importlib.import_module(home), name))

    def test_unknown_attribute_still_raises(self):
        import repro.api

        with pytest.raises(AttributeError):
            repro.api.not_a_real_name

    def test_old_import_paths_still_work(self, fig1_mset):
        # pre-façade call sites must keep working unchanged
        from repro.algorithms.registry import available_schedulers, get_scheduler
        from repro.core.brute_force import solve_exact
        from repro.core.dp import solve_dp

        assert "greedy+reversal" in available_schedulers()
        assert get_scheduler("greedy+reversal")(fig1_mset).reception_completion == 8
        assert solve_dp(fig1_mset).value == solve_exact(fig1_mset).value == 8
