#!/usr/bin/env python3
"""MinoanER benchmark: time MinoanER.resolve or a BSL sweep on a generated KB pair.

Usage (from the repository root):

    python3 perfbench/run.py --workload <rexa|bsl> [--seed <n>] \
        --seconds <s> --trace <0|1>

The first run in a checkout builds the program and the harness with sbt
(offline) and caches the runtime classpath in .bench_build/; later runs start
the JVM directly. Every run starts a fresh JVM with a local[nproc] Spark
session. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones. The full
result (run settings, samples, failures and, when traced, the span tree) is
written to .bench_build/results/.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("rexa", "bsl")
HEAP = "4g"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175
# The module opens that spark-submit passes to a Java 17 JVM.
JAVA_OPTS = [
    "--add-opens=java.base/" + p + "=ALL-UNNAMED"
    for p in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io",
              "java.net", "java.nio", "java.util", "java.util.concurrent",
              "java.util.concurrent.atomic", "sun.nio.ch", "sun.nio.cs",
              "sun.security.action", "sun.util.calendar")
] + ["-Djdk.reflect.useDirectMethodHandle=false",
     "-Dio.netty.tryReflectionSetAccessible=true"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_files():
    """Every file the build reads from the checkout, in a stable order."""
    roots = [ROOT / "src" / "main", ROOT / "jobs", HERE / "src"]
    files = [ROOT / "build.sbt", HERE / "build.sbt",
             HERE / "project" / "build.properties"]
    files += sorted((ROOT / "project").glob("*.sbt"))
    files += sorted((ROOT / "project").glob("*.properties"))
    for r in roots:
        if r.is_dir():
            files += sorted(p for p in r.rglob("*") if p.is_file())
    return [f for f in files if f.is_file()]


def source_digest():
    h = hashlib.sha256()
    for f in source_files():
        h.update(str(f.relative_to(ROOT)).encode() + b"\0")
        h.update(f.read_bytes() + b"\0")
    return h.hexdigest()


def build(digest):
    """Compile with sbt unless the cached classpath matches these sources."""
    stamp = BUILD / "build.json"
    if stamp.is_file():
        cached = json.loads(stamp.read_text())
        cp = cached.get("classpath", "")
        if cached.get("digest") == digest and all(
                Path(p).exists() for p in cp.split(os.pathsep)):
            return cp
    env = dict(os.environ)
    env["COURSIER_MODE"] = "offline"
    sbt_opts = env.get("SBT_OPTS", "")
    if "-Dsbt.offline=true" not in sbt_opts:
        env["SBT_OPTS"] = (sbt_opts + " -Dsbt.offline=true").strip()
    log = BUILD / "build.log"
    print("perfbench: building with sbt (log in .bench_build/build.log)",
          file=sys.stderr)
    with open(log, "w") as out:
        rc = run_process(["sbt", "--batch", "--no-server",
                          "-Dsbt.log.noformat=true", "writeClasspath"],
                         cwd=HERE, stdout=out, timeout=BUILD_TIMEOUT_S, env=env)
    cp_file = HERE / "target" / "runtime-classpath.txt"
    if rc != 0 or not cp_file.is_file():
        sys.stderr.write(log.read_text()[-4000:])
        fail(f"build failed (exit {rc})")
    cp = cp_file.read_text().strip()
    stamp.write_text(json.dumps({"digest": digest, "classpath": cp}))
    return cp


def run_process(cmd, cwd, stdout, timeout, env=None):
    """Run cmd in its own process group, stderr merged into stdout; on
    timeout, kill the group and wait for it."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout,
                            stderr=subprocess.STDOUT, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} did not finish within {timeout} s")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int,
                    help="KB generator seed (default: the preset's own)")
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main").is_dir():
        fail(f"no program sources next to {HERE.name}/ (build.sbt, src/main)")
    expected = expected_metrics(a.trace)

    BUILD.mkdir(exist_ok=True)
    digest = source_digest()
    cp = build(digest)

    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD))
    tmp, local = run_dir / "tmp", run_dir / "spark-local"
    tmp.mkdir()
    local.mkdir()
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    seed = "default" if a.seed is None else a.seed
    out = results / f"{a.workload}-seed{seed}-trace{a.trace}.json"
    out.unlink(missing_ok=True)

    cmd = ["java", f"-Xmx{HEAP}", *JAVA_OPTS, f"-Djava.io.tmpdir={tmp}",
           "-cp", cp, "repro.perfbench.Main",
           "--workload", a.workload,
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--out", str(out), "--source-digest", digest]
    if a.seed is not None:
        cmd += ["--seed", str(a.seed)]
    commit = git_commit()
    if commit:
        cmd += ["--git-commit", commit]
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(local))
    t0 = time.monotonic()
    try:
        rc = run_process(cmd, cwd=ROOT, stdout=sys.stderr, timeout=RUN_TIMEOUT_S, env=env)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if rc != 0 or not out.is_file():
        fail(f"harness exited with {rc} and no result")

    res = json.loads(out.read_text())
    metrics = {k: v for k, v in res["metrics"].items()
               if k in expected and isinstance(v.get("value"), (int, float))}
    missing = [k for k in expected if k not in metrics]
    correct = bool(res["correct"]) and not missing
    attempted, failed = int(res["attempted"]), int(res["failed"])

    s = res["settings"]
    print(f"workload {a.workload}: {s['preset']} x{s['scale']}, seed {s['seed']}, "
          f"entities {s['entities']}, {s['master']}, heap {s['driver_heap_mb']} MB, "
          f"Spark {s['spark_version']}, Java {s['java_version']}, "
          f"Scala {s['scala_version']}, sources {digest[:12]}")
    for k, v in metrics.items():
        print(f"  {k:40s} {v['value']:>14.6g} {v['unit']}")
    for k, xs in res.get("samples", {}).items():
        print(f"  samples {k}: {xs}")
    print(f"  jvm {time.monotonic() - t0:.1f} s, of which start-up {res.get('startup_s')}")
    print(f"  error_rate {failed / attempted:.4f} ({failed}/{attempted} operations failed)")
    for f in res.get("failures", []):
        print(f"  FAILED: {f.splitlines()[0][:300]}")
    for k in missing:
        print(f"  MISSING metric: {k}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed if not missing else max(failed, 1),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
