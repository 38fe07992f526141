"""Sanity checks on the GitHub Actions pipeline definition.

Keeps ``.github/workflows/ci.yml`` honest without needing a runner: it must
parse as YAML and keep the three jobs (matrix tests, lint, benchmark smoke
with artifact upload) the repo's CI contract promises.
"""

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

CI_PATH = Path(__file__).resolve().parents[1] / ".github" / "workflows" \
    / "ci.yml"


@pytest.fixture(scope="module")
def workflow():
    return yaml.safe_load(CI_PATH.read_text())


def test_parses_and_triggers(workflow):
    assert workflow["name"] == "CI"
    # PyYAML reads the bare `on:` key as boolean True
    triggers = workflow.get("on", workflow.get(True))
    assert "pull_request" in triggers
    assert triggers["push"]["branches"] == ["main"]


def test_expected_jobs_present(workflow):
    assert set(workflow["jobs"]) == {"test", "lint", "chaos",
                                     "bench-smoke", "serving-load",
                                     "experiment-resume",
                                     "columnar-bench", "mesh-drill",
                                     "ipc-bench", "ledger"}


def test_concurrency_cancels_superseded_runs(workflow):
    """Pushing again must cancel the now-stale in-flight run."""
    group = workflow["concurrency"]
    assert group["cancel-in-progress"] is True
    assert "github.ref" in group["group"]


def test_every_job_is_time_bounded(workflow):
    """A hung event loop or load test must fail the job, not wedge the
    runner for the 6-hour GitHub default."""
    for name, job in workflow["jobs"].items():
        assert isinstance(job.get("timeout-minutes"), int), \
            f"job {name!r} has no timeout-minutes"


def test_every_job_caches_pip(workflow):
    for name, job in workflow["jobs"].items():
        setup = next(step for step in job["steps"]
                     if "setup-python" in step.get("uses", ""))
        assert setup["with"].get("cache") == "pip", \
            f"job {name!r} does not cache pip"
        assert setup["with"].get("cache-dependency-path") == \
            "pyproject.toml"


def test_matrix_covers_supported_pythons(workflow):
    matrix = workflow["jobs"]["test"]["strategy"]["matrix"]
    assert matrix["python-version"] == ["3.10", "3.12"]


def steps_text(job):
    return " ".join(str(step.get("run", "")) + str(step.get("uses", ""))
                    for step in job["steps"])


def test_tier1_suite_runs_in_matrix_job(workflow):
    text = steps_text(workflow["jobs"]["test"])
    assert "PYTHONPATH=src python -m pytest -x -q" in text
    # a listener teardown that waits out a poll again (0.50 s / 1.00 s
    # entries) shows up in the log
    assert "--durations=10" in text


def test_ledger_suite_runs_in_ci(workflow):
    """Nothing else in CI imports ``ledger/``: without this job a rename
    under ``src/`` that breaks the benchmark is found only by the
    benchmark itself."""
    assert "python -m pytest ledger/tests -q" in \
        steps_text(workflow["jobs"]["ledger"])


def test_lint_job_compiles_and_ruffs(workflow):
    text = steps_text(workflow["jobs"]["lint"])
    assert "compileall" in text
    assert "ruff check" in text
    assert "python tools/layering_lint.py" in text


def _load_layering_lint():
    import importlib.util

    script = Path(__file__).resolve().parents[1] / "tools" \
        / "layering_lint.py"
    spec = importlib.util.spec_from_file_location("layering_lint", script)
    lint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lint)
    return lint


def test_layering_lint_passes():
    """The CI layering gate must hold on the tree as checked in."""
    assert _load_layering_lint().main() == 0


def test_layering_rules_cover_the_admission_plane():
    """Admission must stay byte-mover-free, and the movers admission-free.

    The controller is attachable to every serving plane precisely
    because it never imports one; conversely the transports/httpd must
    not reach up into policy.  Pin the rule set so a future refactor
    cannot silently drop the firewall.
    """
    rules = _load_layering_lint().RULES
    admission = rules["src/repro/ws/admission.py"]
    for banned in ("repro.ws.transport", "repro.ws.httpd",
                   "repro.ws.aserve", "repro.ws.client", "repro.chaos"):
        assert banned in admission
    assert "repro.ws.admission" in rules["src/repro/ws/transport.py"]
    assert "repro.ws.admission" in rules["src/repro/ws/httpd.py"]
    aserve = rules["src/repro/ws/aserve.py"]
    assert "repro.chaos" in aserve and "repro.ws.breaker" in aserve


def test_layering_rules_cover_the_columnar_plane():
    """The codec is a pure data-plane leaf and the vectorised kernels
    never talk to the wire: pin the new rules so a refactor cannot
    silently couple the fast paths to serving concerns."""
    rules = _load_layering_lint().RULES
    for module in ("src/repro/data/codec.py", "src/repro/data/dataio.py"):
        for banned in ("repro.obs", "repro.chaos", "repro.ws.breaker",
                       "repro.ws.admission", "repro.ws"):
            assert banned in rules[module], (module, banned)
    for module in ("src/repro/ml/base.py", "src/repro/ml/evaluation.py",
                   "src/repro/ml/classifiers/j48.py",
                   "src/repro/ml/classifiers/ibk.py",
                   "src/repro/ml/clusterers/kmeans.py"):
        assert "repro.ws" in rules[module], module


def test_layering_rules_cover_the_mesh_plane():
    """The mesh is control plane: routing weighs replicas and the
    supervisor forks workers, but faults are only ever injected by the
    chaos chain steps inside each worker and model mathematics never
    reaches routing.  Conversely the byte movers must not reach up
    into mesh policy.  Pin both directions of the firewall."""
    lint = _load_layering_lint()
    rules = lint.RULES
    mesh = sorted((Path(lint.REPO) / "src/repro/ws/mesh").glob("*.py"))
    assert len(mesh) >= 8
    for module in mesh:
        module = str(module.relative_to(lint.REPO))
        for banned in ("repro.chaos", "repro.ml"):
            assert banned in lint.forbidden_for(module), (module, banned)
    assert "repro.ws.mesh" in rules["src/repro/ws/transport.py"]
    assert "repro.ws.mesh" in rules["src/repro/ws/httpd.py"]


def test_layering_rules_keep_failover_policy_only():
    """The failover walk decides; the caller's callback moves the bytes.
    And the rule set shrank to get here: one package-prefix rule
    replaced eight identical per-module mesh rules."""
    lint = _load_layering_lint()
    failover = lint.forbidden_for("src/repro/ws/failover.py")
    for banned in ("repro.chaos", "repro.ws.transport", "repro.ws.httpd",
                   "repro.ws.aserve", "repro.ws.soap"):
        assert banned in failover, banned
    assert len(lint.RULES) <= 18


def test_layering_rules_keep_http_in_one_module(tmp_path, monkeypatch):
    """HTTP/1.1 is written once: no module under ``src/repro/`` imports
    the stdlib's client, server or ``socketserver`` (tests keep
    ``http.client`` as the independent reference), and the byte layer
    itself knows nothing of ``repro`` but its errors."""
    lint = _load_layering_lint()
    stdlib = ("http.client", "http.server", "socketserver")
    for module in ("src/repro/ws/transport.py", "src/repro/ws/http11.py",
                   "src/repro/ws/mesh/gateway.py",
                   "src/repro/services/deploy.py"):
        for banned in stdlib:
            assert banned in lint.forbidden_for(module), (module, banned)
    assert lint.ONLY["src/repro/ws/http11.py"] == ("repro.errors",)
    # the checker sees every spelling of an import
    module = tmp_path / "src/repro/ws/http11.py"
    module.parent.mkdir(parents=True)
    module.write_text("from http import client\n"
                      "def late():\n    import socketserver\n"
                      "from repro.ws import soap\nimport repro.obs\n"
                      "from repro.errors import TransportError\n"
                      "from http import HTTPStatus\nimport reprolib\n")
    monkeypatch.setattr(lint, "REPO", tmp_path)
    problems = lint.check("src/repro/ws/http11.py", stdlib)
    assert sorted(problem.split(":")[1] for problem in problems) == \
        ["1", "3", "4", "5"]


def test_layering_rules_cover_the_ipc_plane():
    """The shared-memory segment store is a pure same-host byte pool:
    it maps and verifies segments, nothing else.  Its counters are
    emitted by the payload layer above it, and it must never observe,
    inject faults, dial a transport or reach into mesh policy.  Pin
    the rule so a refactor cannot silently couple the zero-copy tier
    to serving concerns."""
    rules = _load_layering_lint().RULES
    shm_rules = rules["src/repro/ws/shm.py"]
    for banned in ("repro.obs", "repro.chaos", "repro.ws.breaker",
                   "repro.ws.mesh", "repro.ws.transport",
                   "repro.ws.admission"):
        assert banned in shm_rules, banned


def test_ipc_bench_job_gates_and_uploads_the_report(workflow):
    """PERF-IPC: the bulk-tier A/Bs on >= 1 MB columnar frames run in CI
    — uds+shm vs tcp+attachments through the mesh (in-test gates: shm's
    p50 no worse than the tcp arm's, at <= 1 % of its wire bytes; the
    tcp arm's by-ref repeat at <= 0.8 of its full send) and attachments
    vs the base64 fallback across one hop (>= 2x p50) — and the JSON
    report lands as the ``ipc-bench`` artifact."""
    job = workflow["jobs"]["ipc-bench"]
    text = steps_text(job)
    assert "benchmarks/test_bench_ipc.py" in text
    assert "tcp+attachments" in job["name"]
    for step in job["steps"]:
        if "python -m pytest" in step.get("run", ""):
            assert step["env"]["PYTHONHASHSEED"] == "0"
            # the step is named for the gates the bench file enforces
            assert "1 % wire bytes" in step["name"]
            assert "by-ref repeat <= 0.8" in step["name"]
            assert "2x p50" not in step["name"]
    upload = next(step for step in job["steps"]
                  if "upload-artifact" in step.get("uses", ""))
    assert upload["with"]["name"] == "ipc-bench"
    assert "BENCH_ipc.json" in upload["with"]["path"]
    assert upload["with"]["if-no-files-found"] == "error"


def test_mesh_drill_job_gates_and_uploads_the_report(workflow):
    """PERF-MESH: the worker-SIGKILL drill and the skewed-replica
    routing benchmark run in CI (the in-test gates enforce zero
    client-visible failures and >= 1.5x p99 for adaptive over static)
    and the JSON report lands as the ``mesh-drill`` artifact."""
    job = workflow["jobs"]["mesh-drill"]
    text = steps_text(job)
    assert "tests/mesh" in text
    assert "benchmarks/test_bench_mesh.py" in text
    for step in job["steps"]:
        if "python -m pytest" in step.get("run", ""):
            assert step["env"]["PYTHONHASHSEED"] == "0"
    upload = next(step for step in job["steps"]
                  if "upload-artifact" in step.get("uses", ""))
    assert upload["with"]["name"] == "mesh-drill"
    assert "BENCH_mesh.json" in upload["with"]["path"]
    assert upload["with"]["if-no-files-found"] == "error"


def test_columnar_bench_job_gates_and_uploads_the_report(workflow):
    """PERF-COLUMNAR: the columnar data-plane A/B runs in CI (its
    in-test gates enforce >= 5x end-to-end and >= 2x wire bytes) and
    its JSON lands as the ``columnar-bench`` artifact."""
    job = workflow["jobs"]["columnar-bench"]
    text = steps_text(job)
    assert "benchmarks/test_bench_columnar.py" in text
    assert "--benchmark-json=BENCH_columnar.json" in text
    upload = next(step for step in job["steps"]
                  if "upload-artifact" in step.get("uses", ""))
    assert upload["with"]["name"] == "columnar-bench"
    assert "BENCH_columnar.json" in upload["with"]["path"]
    assert upload["with"]["if-no-files-found"] == "error"


def test_bench_smoke_uploads_artifact(workflow):
    job = workflow["jobs"]["bench-smoke"]
    text = steps_text(job)
    assert "benchmarks/test_bench_remote_overhead.py" in text
    assert "--benchmark-json" in text
    upload = next(step for step in job["steps"]
                  if "upload-artifact" in step.get("uses", ""))
    assert upload["with"]["name"] == "bench-remote-overhead"
    assert upload["with"]["if-no-files-found"] == "error"


def test_bench_smoke_runs_the_batching_gate(workflow):
    """PERF-BATCH: the batching benchmark runs in CI (its in-test gates
    enforce >= 5x fewer wire exchanges and >= 2x lower modelled time)
    and its JSON lands in the uploaded artifact."""
    job = workflow["jobs"]["bench-smoke"]
    text = steps_text(job)
    assert "benchmarks/test_bench_batching.py" in text
    assert "--benchmark-json=BENCH_batching.json" in text
    upload = next(step for step in job["steps"]
                  if "upload-artifact" in step.get("uses", ""))
    assert "BENCH_batching.json" in upload["with"]["path"]


def test_bench_smoke_runs_the_j48_kernel_gate(workflow):
    """PERF-J48: the Figure-4 benchmark runs in CI (its in-test gates hold
    the array-kernel fit at >= 2x the scalar oracle on the paper's dataset
    and >= 10x on a 2 000 x 8 numeric frame) and its JSON is uploaded."""
    job = workflow["jobs"]["bench-smoke"]
    text = steps_text(job)
    assert "benchmarks/test_bench_fig4_tree.py" in text
    assert "--benchmark-json=BENCH_fig4_tree.json" in text
    upload = next(step for step in job["steps"]
                  if "upload-artifact" in step.get("uses", ""))
    assert "BENCH_fig4_tree.json" in upload["with"]["path"]


def test_bench_smoke_runs_the_sec45_lifecycle_gate(workflow):
    """PERF-4.5, the paper's only performance result: the lifecycle
    benchmark runs in CI (its in-test gate holds the serialize lifecycle
    slower than the harness on repeated J48 calls) and its JSON is
    uploaded."""
    job = workflow["jobs"]["bench-smoke"]
    text = steps_text(job)
    assert "benchmarks/test_bench_sec45_harness.py" in text
    assert "--benchmark-json=BENCH_sec45_harness.json" in text
    upload = next(step for step in job["steps"]
                  if "upload-artifact" in step.get("uses", ""))
    assert "BENCH_sec45_harness.json" in upload["with"]["path"]


def test_chaos_job_is_seeded_and_uploads_snapshot(workflow):
    job = workflow["jobs"]["chaos"]
    text = steps_text(job)
    assert "tests/chaos" in text
    # the acceptance drill: same spec + seed twice, outcome blocks diffed
    assert "--chaos 'drop=0.3,delay=50ms' --seed 7" in text
    assert "diff -u outcome1.txt outcome2.txt" in text
    # and an exhausted budget must fail fast with DeadlineExceeded
    assert "--deadline" in text
    assert "DeadlineExceeded" in text
    upload = next(step for step in job["steps"]
                  if "upload-artifact" in step.get("uses", ""))
    assert upload["with"]["name"] == "chaos-metrics"
    assert upload["with"]["if-no-files-found"] == "error"


def test_serving_load_job_gates_and_uploads_the_report(workflow):
    """PERF-SERVING: the closed-loop saturation bench runs in CI (its
    in-test gates enforce the sustained req/s floor, the p99 ceiling
    and the cheap-shed bound at 1k concurrent clients) and its JSON
    report is published as an artifact."""
    job = workflow["jobs"]["serving-load"]
    text = steps_text(job)
    assert "benchmarks/test_bench_serving.py" in text
    upload = next(step for step in job["steps"]
                  if "upload-artifact" in step.get("uses", ""))
    assert upload["with"]["name"] == "serving-load"
    assert "BENCH_serving.json" in upload["with"]["path"]
    assert upload["with"]["if-no-files-found"] == "error"


def test_experiment_resume_job_drills_and_uploads_the_store(workflow):
    """The chaos-resume drill is a CI gate: the experiment suite
    (including the subprocess SIGKILL drill) runs hash-seeded, and the
    drill's final checkpoint store + report are published as the
    run's evidence artifact."""
    job = workflow["jobs"]["experiment-resume"]
    text = steps_text(job)
    assert "tests/experiment" in text
    drill = next(step for step in job["steps"]
                 if "tests/experiment" in step.get("run", ""))
    assert drill["env"]["PYTHONHASHSEED"] == "0"
    assert drill["env"]["EXPERIMENT_ARTIFACT_DIR"] == \
        "experiment-artifacts"
    upload = next(step for step in job["steps"]
                  if "upload-artifact" in step.get("uses", ""))
    assert upload["with"]["name"] == "experiment-resume-drill"
    assert "experiment-artifacts" in upload["with"]["path"]
    assert upload["with"]["if-no-files-found"] == "error"


def test_no_install_beyond_whitelisted_tools(workflow):
    """CI may only pip-install what the project declares (plus ruff and
    the bench plugin) — mirrors the repo's no-new-dependency policy."""
    allowed = {"numpy", "pytest", "hypothesis", "pytest-benchmark", "ruff"}
    for job in workflow["jobs"].values():
        for step in job["steps"]:
            run = step.get("run", "")
            if "pip install" not in run:
                continue
            pkgs = run.split("pip install", 1)[1].split()
            assert set(pkgs) <= allowed, pkgs
