"""Registry tests: schema validation, canonicalization, cache-key derivation.

The property tests (hypothesis, derandomized) pin the invariants the shared
cache depends on: canonicalization is idempotent and total over valid
inputs, kwarg ordering never matters, and cache keys derive from OpSpec
field order — including the regression for the old ad-hoc canonicalization
whose keys leaned on dict-ordering assumptions.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ArgSpec, OpSpec, OperationRegistry, build_default_registry
from repro.api.ops import DEFAULT_REGISTRY
from repro.errors import InvalidArgumentError, UnknownOperationError

pytestmark = pytest.mark.tier1


class TestRegistryBasics:
    def test_default_registry_declares_every_service_operation(self):
        # the acceptance criterion: everything service.call can reach,
        # dataset scope and session scope alike — no dispatch outside it
        assert set(DEFAULT_REGISTRY.names()) == {
            "metrics", "rwr", "connection_subgraph", "connectivity", "inspect_edge",
            "query.path",
            "session.create", "session.restore", "session.resume",
            "session.describe", "session.step", "session.close", "session.list",
            "session.metrics", "session.rwr", "session.connection_subgraph",
            "dataset.apply", "dataset.subscribe", "dataset.ingest",
        }

    def test_every_spec_is_fully_bound(self):
        for spec in DEFAULT_REGISTRY:
            assert spec.handler is not None, spec.name
            assert spec.doc
            assert spec.cost in ("cheap", "expensive")
            if spec.scope == "dataset":
                assert spec.encoder is not None, spec.name
            elif spec.scope == "service":
                # registry write path / change feeds: JSON-safe payloads,
                # never cacheable (they mutate or observe mutable state)
                assert spec.name.startswith("dataset."), spec.name
                assert not spec.cacheable, spec.name
            else:
                # session ops: lifecycle payloads are already JSON-safe
                # (no encoder); mining variants reuse their twin's encoder
                assert spec.name.startswith("session.")
                assert not spec.cacheable, spec.name

    def test_session_variants_mirror_their_dataset_twin(self):
        for name in ("metrics", "rwr", "connection_subgraph"):
            twin = DEFAULT_REGISTRY.get(name)
            variant = DEFAULT_REGISTRY.get(f"session.{name}")
            assert variant.scope == "session"
            assert variant.cost == twin.cost
            assert variant.encoder is twin.encoder
            assert variant.arg_names == ("session_id",) + twin.arg_names

    def test_scope_rejects_unknown_values(self):
        with pytest.raises(ValueError, match="scope"):
            OpSpec(name="x", scope="galaxy")

    def test_unknown_operation_raises_taxonomy_error(self):
        with pytest.raises(UnknownOperationError):
            DEFAULT_REGISTRY.get("teleport")

    def test_duplicate_registration_rejected(self):
        registry = OperationRegistry([OpSpec(name="x")])
        with pytest.raises(ValueError):
            registry.register(OpSpec(name="x"))

    def test_describe_table_shape(self):
        table = DEFAULT_REGISTRY.describe()
        assert [row["name"] for row in table] == list(DEFAULT_REGISTRY.names())
        rwr = next(row for row in table if row["name"] == "rwr")
        by_name = {arg["name"]: arg for arg in rwr["args"]}
        assert by_name["sources"]["required"] is True
        assert by_name["solver"]["choices"] == ["power", "exact"]
        assert by_name["restart_probability"]["default"] == 0.15


class TestValidation:
    def test_unknown_argument_rejected(self):
        spec = DEFAULT_REGISTRY.get("rwr")
        with pytest.raises(InvalidArgumentError, match="unknown argument"):
            spec.canonicalize({"sources": [1], "budget": 3})

    def test_missing_required_argument_rejected(self):
        with pytest.raises(InvalidArgumentError, match="requires argument"):
            DEFAULT_REGISTRY.get("rwr").canonicalize({})

    def test_type_violation_rejected(self):
        with pytest.raises(InvalidArgumentError, match="sources"):
            DEFAULT_REGISTRY.get("rwr").canonicalize({"sources": "author-1"})

    def test_domain_validator_rejected(self):
        with pytest.raises(InvalidArgumentError, match="restart_probability"):
            DEFAULT_REGISTRY.get("rwr").canonicalize(
                {"sources": [1], "restart_probability": 1.5}
            )

    def test_choices_enforced(self):
        with pytest.raises(InvalidArgumentError, match="solver"):
            DEFAULT_REGISTRY.get("rwr").canonicalize(
                {"sources": [1], "solver": "magic"}
            )

    def test_empty_sources_rejected(self):
        with pytest.raises(InvalidArgumentError, match="at least one source"):
            DEFAULT_REGISTRY.get("rwr").canonicalize({"sources": []})

    def test_bool_does_not_slip_into_int_slot(self):
        with pytest.raises(InvalidArgumentError, match="budget"):
            DEFAULT_REGISTRY.get("connection_subgraph").canonicalize(
                {"sources": [1], "budget": True}
            )

    def test_explicit_none_rejected_for_non_nullable_knobs(self):
        # regression: None used to bypass type checks for every optional
        # argument and crash later in a normalizer or deep in a handler
        with pytest.raises(InvalidArgumentError, match="restart_probability"):
            DEFAULT_REGISTRY.get("rwr").canonicalize(
                {"sources": [1], "restart_probability": None}
            )
        with pytest.raises(InvalidArgumentError, match="budget"):
            DEFAULT_REGISTRY.get("connection_subgraph").canonicalize(
                {"sources": [1], "budget": None}
            )
        with pytest.raises(InvalidArgumentError, match="solver"):
            DEFAULT_REGISTRY.get("rwr").canonicalize(
                {"sources": [1], "solver": None}
            )

    def test_explicit_none_accepted_where_declared_nullable(self):
        spec = DEFAULT_REGISTRY.get("metrics")
        canonical = spec.canonicalize(
            {"community": None, "hop_sample_size": None, "seed": None}
        )
        signature = dict(canonical["metrics"])
        assert canonical["community"] is None
        assert signature["hop_sample_size"] is None
        assert signature["seed"] is None


class TestCanonicalization:
    def test_defaults_filled_in_spec_order(self):
        canonical = DEFAULT_REGISTRY.get("rwr").canonicalize({"sources": [3, 1]})
        assert list(canonical) == [
            "sources", "community", "restart_probability", "solver",
        ]
        assert canonical["sources"] == [1, 3]
        assert canonical["restart_probability"] == 0.15
        assert canonical["solver"] == "power"

    def test_metrics_knobs_collapse_into_signature(self):
        spec = DEFAULT_REGISTRY.get("metrics")
        defaulted = spec.canonicalize({})
        explicit = spec.canonicalize(
            {"pagerank_damping": 0.85, "top_k": 10, "seed": 0}
        )
        assert defaulted == explicit
        assert list(defaulted) == ["community", "metrics"]

    def test_inspect_edge_pair_is_ordered(self):
        spec = DEFAULT_REGISTRY.get("inspect_edge")
        forward = spec.canonicalize({"community_a": "s1", "community_b": "s0"})
        backward = spec.canonicalize({"community_a": "s0", "community_b": "s1"})
        assert forward == backward

    def test_sources_dedup_and_container_insensitive(self):
        spec = DEFAULT_REGISTRY.get("rwr")
        as_list = spec.canonicalize({"sources": [2, 1, 2]})
        as_tuple = spec.canonicalize({"sources": (1, 2)})
        as_set = spec.canonicalize({"sources": {1, 2}})
        assert as_list == as_tuple == as_set


class TestCacheKeyDerivation:
    """Regression: keys derive from OpSpec field order, not dict ordering."""

    def test_permuted_kwargs_share_one_cache_key(self):
        spec = DEFAULT_REGISTRY.get("connection_subgraph")
        forward = {"sources": [5, 2], "community": "s0", "budget": 10,
                   "restart_probability": 0.2}
        permuted = {"restart_probability": 0.2, "budget": 10,
                    "community": "s0", "sources": [2, 5]}
        key_a = spec.cache_key("fp", spec.canonicalize(forward))
        key_b = spec.cache_key("fp", spec.canonicalize(permuted))
        assert key_a == key_b

    def test_key_shape_is_spec_ordered(self):
        spec = DEFAULT_REGISTRY.get("rwr")
        fingerprint, op, fields = spec.cache_key(
            "fp", spec.canonicalize({"sources": [1]})
        )
        assert (fingerprint, op) == ("fp", "rwr")
        assert [name for name, _ in fields] == [
            "sources", "community", "restart_probability", "solver",
        ]

    def test_distinct_args_get_distinct_keys(self):
        spec = DEFAULT_REGISTRY.get("rwr")
        base = spec.cache_key("fp", spec.canonicalize({"sources": [1]}))
        other = spec.cache_key("fp", spec.canonicalize({"sources": [2]}))
        solver = spec.cache_key(
            "fp", spec.canonicalize({"sources": [1], "solver": "exact"})
        )
        assert len({base, other, solver}) == 3

    def test_permuted_kwargs_hit_the_same_cache_entry(self, service, hot_leaf):
        # end to end: the service cache observes exactly one computation
        leaf, members = hot_leaf
        first = service.call(
            "rwr", sources=list(members), community=leaf.label,
            restart_probability=0.15, solver="power",
        )
        second = service.call(
            "rwr", solver="power", restart_probability=0.15,
            community=leaf.label, sources=list(reversed(members)),
        )
        assert second is first
        assert service.compute_counts.get("rwr") == 1


@st.composite
def rwr_args(draw):
    sources = draw(st.lists(st.integers(0, 99), min_size=1, max_size=6))
    args = {"sources": sources}
    if draw(st.booleans()):
        args["community"] = draw(st.sampled_from(["s0", "s00", "s000", None]))
    if draw(st.booleans()):
        args["restart_probability"] = draw(
            st.floats(min_value=0.01, max_value=0.99,
                      allow_nan=False, allow_infinity=False)
        )
    if draw(st.booleans()):
        args["solver"] = draw(st.sampled_from(["power", "exact"]))
    return args


class TestCanonicalizationProperties:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(args=rwr_args())
    def test_canonicalize_is_idempotent(self, args):
        spec = DEFAULT_REGISTRY.get("rwr")
        once = spec.canonicalize(args)
        twice = spec.canonicalize(once)
        assert once == twice
        assert spec.cache_key("fp", once) == spec.cache_key("fp", twice)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(args=rwr_args(), seed=st.integers(0, 2**16))
    def test_kwarg_order_never_changes_the_key(self, args, seed):
        import random

        spec = DEFAULT_REGISTRY.get("rwr")
        items = list(args.items())
        random.Random(seed).shuffle(items)
        shuffled = dict(items)
        key_a = spec.cache_key("fp", spec.canonicalize(args))
        key_b = spec.cache_key("fp", spec.canonicalize(shuffled))
        assert key_a == key_b

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(args=rwr_args())
    def test_source_order_and_duplication_never_change_the_key(self, args):
        spec = DEFAULT_REGISTRY.get("rwr")
        doubled = dict(args)
        doubled["sources"] = list(reversed(args["sources"])) + args["sources"]
        key_a = spec.cache_key("fp", spec.canonicalize(args))
        key_b = spec.cache_key("fp", spec.canonicalize(doubled))
        assert key_a == key_b


class TestRegistryConstruction:
    def test_fresh_registries_are_independent(self):
        first = build_default_registry()
        second = build_default_registry()
        first.register(OpSpec(name="extra"))
        assert "extra" in first
        assert "extra" not in second

    def test_invalid_cost_class_rejected(self):
        with pytest.raises(ValueError):
            OpSpec(name="bad", cost="free")

    def test_duplicate_arg_names_rejected(self):
        with pytest.raises(ValueError):
            OpSpec(name="bad", args=(ArgSpec("x"), ArgSpec("x")))


class TestReadmeOperationReference:
    """README's "Operation reference" is generated from the registry."""

    @staticmethod
    def _expected_lines():
        lines = []
        for row in DEFAULT_REGISTRY.describe():
            flags = [row["scope"], row["cost"],
                     "cached" if row["cacheable"] else "uncached"]
            if row["plannable"]:
                flags.append("plannable")
            if row["prepared"]:
                flags.append("prepared")
            if "stream" in row:
                flags.append(f"streams `{row['stream']['field']}`")
            if row["merge"] is not None:
                flags.append(f"shard-{row['merge']}")
            lines.append(f"**`{row['name']}`** — {row['doc']} *({', '.join(flags)})*")
            for arg in row["args"]:
                shape = [arg["type"]]
                shape.append("required" if arg["required"]
                             else f"default `{arg['default']!r}`")
                if "choices" in arg:
                    shape.append(f"one of `{arg['choices']!r}`")
                lines.append(f"- `{arg['name']}` ({', '.join(shape)}) — {arg['doc']}")
        return lines

    @staticmethod
    def _readme_lines():
        from pathlib import Path

        readme = Path(__file__).resolve().parents[2] / "README.md"
        text = readme.read_text(encoding="utf-8")
        section = text.split("### Operation reference", 1)[1].split("\n#", 1)[0]
        return [
            line for line in section.splitlines()
            if line.startswith("**`") or line.startswith("- `")
        ]

    def test_op_headers_and_arg_bullets_match_describe(self):
        assert self._readme_lines() == self._expected_lines()


class TestApplyAliasValidation:
    """``POST /v1/datasets/<name>/apply`` validates like ``/v1/query``."""

    SCRIPT = [{"action": "add_node", "node": "alias-probe"}]

    @pytest.mark.parametrize("field", ["refresh_rwr", "scirpt_extra"])
    def test_unknown_fields_are_rejected_on_both_routes(self, all_clients, field):
        errors = set()
        for client in all_clients:
            raw_query = client.query_raw(
                "dataset.apply",
                args={"dataset": "dblp", "script": self.SCRIPT, field: True},
            )
            status, payload, raw_alias = client.transport.call(
                "POST", "/v1/datasets/dblp/apply",
                {"script": self.SCRIPT, field: True},
            )
            query_error = json.loads(raw_query)["error"]
            assert payload["ok"] is False and status == 400
            assert query_error["code"] == "INVALID_ARGUMENT"
            assert payload["error"] == query_error
            assert field in query_error["message"]
            errors.add((raw_query, raw_alias))
        assert len(errors) == 1  # in-process bytes == HTTP bytes, per route


class TestSubscribeAliasValidation:
    """``POST /v1/subscribe`` validates like ``/v1/query``: every body field
    reaches the registry, on the direct path and the long-poll hand-off."""

    @pytest.mark.parametrize("timeout", [None, 0.05])
    def test_unknown_fields_are_rejected_on_both_routes(self, all_clients, timeout):
        args = {"dataset": "dblp", "since": 0, "bogus": 1}
        if timeout is not None:
            args["timeout"] = timeout
        errors = set()
        for client in all_clients:
            raw_query = client.query_raw("dataset.subscribe", args=args)
            status, payload, raw_alias = client.transport.call(
                "POST", "/v1/subscribe", args
            )
            query_error = json.loads(raw_query)["error"]
            assert payload["ok"] is False and status == 400
            assert query_error["code"] == "INVALID_ARGUMENT"
            assert "bogus" in query_error["message"]
            assert payload["error"] == query_error
            errors.add((raw_query, raw_alias))
        assert len(errors) == 1  # in-process bytes == HTTP bytes, per route

    def test_valid_fields_answer_the_same_result(self, all_clients):
        args = {"dataset": "dblp", "since": 0, "community": None}
        answers = set()
        for client in all_clients:
            query = json.loads(client.query_raw("dataset.subscribe", args=args))
            status, payload, raw_alias = client.transport.call(
                "POST", "/v1/subscribe", args
            )
            assert status == 200 and query["ok"] is True
            assert payload == {"protocol": payload["protocol"], "ok": True,
                               **query["result"]}
            answers.add(raw_alias)
        assert len(answers) == 1
