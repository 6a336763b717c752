"""Tests for the determinism & concurrency analyzer (tools/checks).

Three layers of coverage:

* **fixture twins** — for every rule, a bad fixture that must fire and
  a good twin that must stay silent (written into a tmp tree shaped
  like the repo, so kernel-scoping applies);
* **pragma / baseline semantics** — suppression, mandatory reasons,
  unused-pragma findings, baseline matching and the shrink-only rule;
* **mutation self-tests** — copy the real ``src`` tree, reintroduce a
  historical bug (the PR 2 ``hash(str)`` in the wave engine, a PR 7
  closure write inside ``ctx.fan_out``, an undeclared ``Pass`` write),
  and require *exactly one* new finding at the mutated file/line.  This
  proves the shipped analyzer would have caught each bug, and the
  unmutated copy doubles as the shipped-baseline self-check.
"""

import json
import shutil
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.checks import run_checks
from tools.checks.cli import all_rules, main as checks_main

KERNEL = "src/repro/graph/fixture_mod.py"
NONKERNEL = "src/repro/core/fixture_mod.py"


def check_tree(tmp_path, files, baseline_path=None):
    """Write the fixture files under tmp_path and run the analyzer.

    With ``baseline_path=None`` a nonexistent path is used so the
    repo's own baseline never leaks into fixture runs.
    """
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source).lstrip("\n"), encoding="utf-8")
    if baseline_path is None:
        baseline_path = tmp_path / "no_baseline.json"
    return run_checks(
        root=tmp_path, targets=("src",), baseline_path=baseline_path
    )


def rules_of(report):
    return [finding.rule for finding in report.active]


# ---------------------------------------------------------------------------
# determinism rules


def test_det_hash_fires_in_kernel(tmp_path):
    report = check_tree(tmp_path, {KERNEL: """
        def child(name):
            return hash(name)
    """})
    assert rules_of(report) == ["det-hash"]
    (finding,) = report.active
    assert finding.path == KERNEL
    assert finding.line == 2


def test_det_hash_good_twin_blake2b(tmp_path):
    report = check_tree(tmp_path, {KERNEL: """
        import hashlib

        def child(name):
            digest = hashlib.blake2b(name.encode(), digest_size=8)
            return int.from_bytes(digest.digest(), "big")
    """})
    assert report.active == []


def test_det_hash_silent_outside_kernel(tmp_path):
    report = check_tree(tmp_path, {NONKERNEL: """
        def child(name):
            return hash(name)
    """})
    assert report.active == []


def test_det_id_fires(tmp_path):
    report = check_tree(tmp_path, {KERNEL: """
        def order(items):
            return sorted(items, key=id)

        def key(obj):
            return id(obj)
    """})
    # sorted(..., key=id) passes the builtin uncalled — only the call
    # site fires, which is the dangerous, orderable use.
    assert rules_of(report) == ["det-id"]
    assert report.active[0].line == 5


def test_det_set_order_fires_on_for_loop(tmp_path):
    report = check_tree(tmp_path, {KERNEL: """
        def emit(xs, out):
            names = set(xs)
            for name in names:
                out.append(name)
    """})
    assert rules_of(report) == ["det-set-order"]
    assert report.active[0].line == 3


def test_det_set_order_good_twin_sorted(tmp_path):
    report = check_tree(tmp_path, {KERNEL: """
        def emit(xs, out):
            names = set(xs)
            for name in sorted(names):
                out.append(name)
    """})
    assert report.active == []


def test_det_set_order_fires_on_list_sink_and_comprehension(tmp_path):
    report = check_tree(tmp_path, {KERNEL: """
        def emit(xs):
            return list({x for x in xs})

        def emit2(xs):
            return [x + 1 for x in set(xs)]
    """})
    assert rules_of(report) == ["det-set-order", "det-set-order"]


def test_det_set_order_set_comprehension_exempt(tmp_path):
    # set -> set cannot leak iteration order into the result
    report = check_tree(tmp_path, {KERNEL: """
        def project(pairs):
            firsts = {a for (a, b) in pairs}
            return {a * 2 for a in firsts}
    """})
    assert report.active == []


def test_det_set_order_rebind_clears_inference(tmp_path):
    report = check_tree(tmp_path, {KERNEL: """
        def emit(xs, out):
            names = set(xs)
            names = sorted(names)
            for name in names:
                out.append(name)
    """})
    assert report.active == []


def test_det_wallclock_fires(tmp_path):
    report = check_tree(tmp_path, {KERNEL: """
        import time
        import random
        from time import perf_counter

        def slow():
            start = time.perf_counter()
            jitter = random.random()
            tick = perf_counter()
            return start + jitter + tick
    """})
    assert rules_of(report) == [
        "det-wallclock", "det-wallclock", "det-wallclock",
    ]
    assert [f.line for f in report.active] == [6, 7, 8]


def test_det_wallclock_good_twin_seeded_rng(tmp_path):
    report = check_tree(tmp_path, {KERNEL: """
        def draw(rng):
            return rng.randrange(4)
    """})
    assert report.active == []


def test_det_env_fires_everywhere_in_src(tmp_path):
    report = check_tree(tmp_path, {NONKERNEL: """
        import os

        def flag():
            return os.environ.get("REPRO_X") == "1"
    """})
    assert rules_of(report) == ["det-env"]


def test_det_env_sanctioned_helper_exempt(tmp_path, monkeypatch):
    from tools.checks import core, determinism

    source = {KERNEL: """
        import os

        def _env_flag(name):
            return os.environ.get(name, "") == "1"
    """}
    # The library sanctions no reader, so even a helper-shaped read
    # fires; a name added to the sanctioned set is exempt.
    assert core.SANCTIONED_ENV_READERS == frozenset()
    assert rules_of(check_tree(tmp_path / "none", source)) == ["det-env"]
    monkeypatch.setattr(
        determinism, "SANCTIONED_ENV_READERS", frozenset({"_env_flag"})
    )
    assert check_tree(tmp_path / "named", source).active == []


# ---------------------------------------------------------------------------
# fan-out race rules


def test_race_closure_write_lambda_in_fan_out(tmp_path):
    report = check_tree(tmp_path, {NONKERNEL: """
        def run(ctx, items):
            acc = []
            ctx.fan_out([lambda i=i: acc.append(i) for i in items])
            return acc
    """})
    assert rules_of(report) == ["race-closure-write"]
    assert report.active[0].line == 3


def test_race_closure_write_named_kernel_in_gather(tmp_path):
    report = check_tree(tmp_path, {KERNEL: """
        def run(engine, work, stats):
            def kernel(item):
                stats["seen"] += 1
                return item

            return engine.gather(kernel, work, cost=1)
    """})
    assert rules_of(report) == ["race-closure-write"]
    assert report.active[0].line == 3


def test_race_closure_write_nonlocal(tmp_path):
    report = check_tree(tmp_path, {KERNEL: """
        def run(engine, work):
            total = 0

            def kernel(item):
                nonlocal total
                total += 1
                return item

            return engine.scan_shards(kernel)
    """})
    assert "race-closure-write" in rules_of(report)


def test_race_good_twin_locals_and_reconcile(tmp_path):
    # mutating locals inside the kernel is fine; the wave() reconcile
    # is *defined* as the single writer of shared state and is exempt.
    report = check_tree(tmp_path, {KERNEL: """
        def run(engine, work, out):
            def kernel(item):
                local = []
                local.append(item)
                return local

            def reconcile(results):
                out.extend(results)

            return engine.wave(work, kernel, reconcile)
    """})
    assert report.active == []


def test_race_rng_method_draw_in_fanned_kernel(tmp_path):
    report = check_tree(tmp_path, {KERNEL: """
        def run(engine, work, rng):
            def kernel(item):
                return rng.randrange(4)

            return engine.map_ranges(kernel, 8, cost=1)
    """})
    assert rules_of(report) == ["race-rng"]


def test_race_rng_helper_draw_in_submitted_fn(tmp_path):
    report = check_tree(tmp_path, {KERNEL: """
        def run(pool, rng):
            def job():
                return child_rng(rng, "shard")

            pool.submit(job)
    """})
    assert rules_of(report) == ["race-rng"]


def test_race_rng_good_twin_draws_before_fanout(tmp_path):
    report = check_tree(tmp_path, {KERNEL: """
        def run(ctx, rng, items):
            draws = [rng.randrange(4) for _ in items]
            ctx.fan_out([lambda d=d: d * 2 for d in draws])
    """})
    assert report.active == []


# ---------------------------------------------------------------------------
# pass-effect rules


def test_effect_undeclared_write_fires(tmp_path):
    report = check_tree(tmp_path, {NONKERNEL: """
        def _run(ctx):
            ctx["out"] = ctx["inp"] + 1
            ctx["extra"] = 2

        P = Pass("p", _run, reads=("inp",), writes=("out",))
    """})
    assert rules_of(report) == ["effect-undeclared-write"]
    (finding,) = report.active
    assert finding.line == 3
    assert "'extra'" in finding.message


def test_effect_write_through_mutation_counts(tmp_path):
    report = check_tree(tmp_path, {NONKERNEL: """
        def _run(ctx):
            ctx["bucket"].append(1)

        P = Pass("p", _run, writes=())
    """})
    assert rules_of(report) == ["effect-undeclared-write"]


def test_effect_dead_decl_fires_for_write_and_read(tmp_path):
    report = check_tree(tmp_path, {NONKERNEL: """
        def _run(ctx):
            ctx["out"] = 1

        P = Pass("p", _run, reads=("ghost_read",), writes=("out", "ghost"))
    """})
    assert sorted(rules_of(report)) == ["effect-dead-decl", "effect-dead-decl"]
    # dead declarations anchor at the Pass(...) declaration line
    assert {f.line for f in report.active} == {4}


def test_effect_good_twin_helper_arg_counts_as_mentioned(tmp_path):
    # aliasing/helper mutation is out of lexical reach by design: a key
    # passed as a call argument counts as mentioned, so a declared
    # write satisfied through a helper does not trip dead-decl.
    report = check_tree(tmp_path, {NONKERNEL: """
        def _run(ctx):
            fill(ctx["out"], ctx["inp"])

        P = Pass("p", _run, reads=("inp",), writes=("out",))
    """})
    assert report.active == []


def test_effect_declared_writes_are_silent(tmp_path):
    report = check_tree(tmp_path, {NONKERNEL: """
        def _run(ctx):
            if "cache" in ctx:
                ctx["out"] = ctx.get("inp", 0)
            ctx.update({"stats": 1})

        P = Pass("p", _run, reads=("inp", "cache"), writes=("out", "stats"))
    """})
    assert report.active == []


# ---------------------------------------------------------------------------
# pragma semantics


def test_pragma_same_line_suppresses(tmp_path):
    report = check_tree(tmp_path, {KERNEL: """
        def child(name):
            return hash(name)  # repro: allow(det-hash) -- fixture: inputs are ints only
    """})
    assert report.active == []
    assert len(report.suppressed) == 1
    finding, pragma = report.suppressed[0]
    assert finding.rule == "det-hash"
    assert "ints only" in pragma.reason


def test_pragma_comment_block_covers_next_code_line(tmp_path):
    report = check_tree(tmp_path, {KERNEL: """
        def child(name):
            # repro: allow(det-hash) -- fixture: reason continues over
            # several comment lines before the code line

            return hash(name)
    """})
    assert report.active == []
    assert len(report.suppressed) == 1


def test_pragma_reason_required(tmp_path):
    report = check_tree(tmp_path, {KERNEL: """
        def child(name):
            return hash(name)  # repro: allow(det-hash) -- short
    """})
    # the suppression is rejected AND the underlying finding survives
    assert sorted(rules_of(report)) == ["det-hash", "pragma"]


def test_pragma_must_name_a_rule(tmp_path):
    report = check_tree(tmp_path, {KERNEL: """
        x = 1  # repro: allow() -- a perfectly long reason with no rule
    """})
    assert rules_of(report) == ["pragma"]


def test_unused_pragma_is_a_finding(tmp_path):
    report = check_tree(tmp_path, {KERNEL: """
        x = 1  # repro: allow(det-hash) -- nothing here actually hashes
    """})
    assert rules_of(report) == ["pragma"]
    assert "unused pragma" in report.active[0].message


def test_pragma_only_suppresses_named_rule(tmp_path):
    report = check_tree(tmp_path, {KERNEL: """
        def child(name):
            return hash(id(name))  # repro: allow(det-hash) -- fixture: suppress one rule
    """})
    # det-hash suppressed, det-id still active
    assert rules_of(report) == ["det-id"]
    assert len(report.suppressed) == 1


# ---------------------------------------------------------------------------
# baseline semantics


def test_baseline_grandfathers_matching_finding(tmp_path):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({"findings": [
        {"rule": "det-hash", "path": KERNEL, "line": 2,
         "col": 11, "message": "grandfathered"},
    ]}), encoding="utf-8")
    report = check_tree(tmp_path, {KERNEL: """
        def child(name):
            return hash(name)
    """}, baseline_path=baseline)
    assert report.active == []
    assert len(report.baselined) == 1
    assert report.ok


def test_baseline_may_only_shrink(tmp_path):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({"findings": [
        {"rule": "det-hash", "path": KERNEL, "line": 99,
         "col": 0, "message": "stale: the code moved on"},
    ]}), encoding="utf-8")
    report = check_tree(tmp_path, {KERNEL: """
        def clean():
            return 0
    """}, baseline_path=baseline)
    assert report.active == []
    assert len(report.stale_baseline) == 1
    assert not report.ok


# ---------------------------------------------------------------------------
# mutation self-tests on the real tree


def copy_src(tmp_path):
    shutil.copytree(
        REPO_ROOT / "src", tmp_path / "src",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return tmp_path


def check_real_copy(root):
    return run_checks(
        root=root, targets=("src",),
        baseline_path=root / "no_baseline.json",
    )


def mutate(root, relpath, appended):
    path = root / relpath
    text = path.read_text(encoding="utf-8") + textwrap.dedent(appended)
    path.write_text(text, encoding="utf-8")
    return text


def line_of(text, needle):
    for number, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return number
    raise AssertionError(f"marker {needle!r} not found")


def test_shipped_tree_is_clean(tmp_path):
    report = check_real_copy(copy_src(tmp_path))
    assert report.active == []


def test_mutation_pr2_hash_str_in_wave_engine(tmp_path):
    root = copy_src(tmp_path)
    relpath = "src/repro/parallel/engine.py"
    text = mutate(root, relpath, """

        def _pr2_regression(seed, name):
            return seed ^ hash(name)
    """)
    report = check_real_copy(root)
    assert len(report.active) == 1
    (finding,) = report.active
    assert finding.rule == "det-hash"
    assert finding.path == relpath
    assert finding.line == line_of(text, "seed ^ hash(name)")


def test_mutation_pr7_closure_write_in_fan_out(tmp_path):
    root = copy_src(tmp_path)
    relpath = "src/repro/pipeline/pipeline.py"
    text = mutate(root, relpath, """

        def _pr7_regression(ctx, items):
            acc = []

            def _thunk(value):
                acc.append(value)
                return value

            ctx.fan_out([_thunk])
            return acc
    """)
    report = check_real_copy(root)
    assert len(report.active) == 1
    (finding,) = report.active
    assert finding.rule == "race-closure-write"
    assert finding.path == relpath
    assert finding.line == line_of(text, "acc.append(value)")


def test_mutation_undeclared_pass_write(tmp_path):
    root = copy_src(tmp_path)
    relpath = "src/repro/core/list_forest.py"
    text = mutate(root, relpath, """

        def _pr9_regression_runner(ctx):
            ctx["pr9_undeclared"] = 1

        _PR9_REGRESSION = Pass("pr9-regression", _pr9_regression_runner, writes=())
    """)
    report = check_real_copy(root)
    assert len(report.active) == 1
    (finding,) = report.active
    assert finding.rule == "effect-undeclared-write"
    assert finding.path == relpath
    assert finding.line == line_of(text, 'ctx["pr9_undeclared"] = 1')


# ---------------------------------------------------------------------------
# the shipped analyzer + baseline against the real tree


def test_self_check_shipped_baseline_matches_tree():
    """`make check` must pass on the checked-in tree: zero unbaselined
    findings and zero stale baseline entries."""
    report = run_checks()
    assert report.active == [], [f.render() for f in report.active]
    assert report.stale_baseline == []
    assert report.ok


def test_rule_catalog_ids_are_unique_and_complete():
    ids = [rule.id for rule in all_rules()]
    assert len(ids) == len(set(ids))
    assert set(ids) == {
        "det-hash", "det-id", "det-set-order", "det-wallclock", "det-env",
        "race-closure-write", "race-rng",
        "effect-undeclared-write", "effect-dead-decl",
    }


def test_cli_json_artifact(tmp_path):
    out = tmp_path / "CHECK_findings.json"
    exit_code = checks_main(["--json", str(out)])
    assert exit_code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["ok"] is True
    assert payload["counts"]["active"] == 0
    statuses = {entry["status"] for entry in payload["findings"]}
    assert statuses <= {"suppressed", "baselined"}
    # every suppressed finding carries its pragma reason into the artifact
    for entry in payload["findings"]:
        if entry["status"] == "suppressed":
            assert len(entry["reason"]) >= 10


def test_cli_list_rules(capsys):
    assert checks_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "det-hash" in out
    assert "race-closure-write" in out
