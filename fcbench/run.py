"""Fair-clique query benchmark.

    python3 fcbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 fcbench/run.py --selfcheck

Builds the program and the benchmark (see build.py), runs one benchmark
JVM with pinned settings, and prints as its last stdout line one JSON
object: `correct`, `attempted`, `failed` and `metrics` — the end-to-end
metrics of BENCHMARK.json with `--trace 0`, the per-layer ones with
`--trace 1`. `--selfcheck` runs every workload on a tiny input in both
modes, checks that each result names every metric with its unit, and
checks that the answer checker rejects corrupted answers.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import threading

import build

# JVM settings, pinned here so that the environment cannot change them.
JVM_HEAP = "3g"
JVM_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar")]
# Variables that Spark or the JVM read on their own.
DROPPED_ENV = ("SPARK_", "PYSPARK_", "HADOOP_", "JAVA_TOOL_OPTIONS", "_JAVA_OPTIONS",
               "JDK_JAVA_OPTIONS")
RUN_TIMEOUT_S = 170
SELFCHECK_TIMEOUT_S = 900


def spec():
    with open(os.path.join(build.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_jvm(args, timeout):
    """Run the benchmark JVM, echo its output, return (exit code, lines)."""
    work = build.build_dir()
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith(DROPPED_ENV)}
    cmd = (["java", f"-Xms{JVM_HEAP}", f"-Xmx{JVM_HEAP}", f"-Djava.io.tmpdir={tmp}"] + JVM_OPENS +
           ["-cp", build.runtime_classpath(), "fcbench.Bench",
            "--local-dir", os.path.join(work, "spark-local")] + args)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True, env=env, cwd=build.ROOT)
    lines = []

    def pump():
        for line in proc.stdout:
            lines.append(line.rstrip("\n"))
            print(line, end="", flush=True)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, stop)
    reader = threading.Thread(target=pump)
    reader.start()
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        code = -9
        print(f"fcbench: benchmark JVM killed after {timeout} s", file=sys.stderr)
    reader.join()
    return code, lines


def validate(result, expected):
    """Raise unless `result` follows the output contract for `expected`."""
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["correct"], bool)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    assert set(got) == set(want), f"metrics differ: {sorted(set(got) ^ set(want))}"
    for name, m in got.items():
        assert m["unit"] == want[name], f"{name}: unit {m['unit']} != {want[name]}"
        assert isinstance(m["value"], (int, float)), f"{name}: {m['value']!r}"


def last_result(lines, prefix):
    found = [l[len(prefix):] for l in lines if l.startswith(prefix)]
    return json.loads(found[-1]) if found else None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    a = ap.parse_args()
    bench = spec()
    build.build()

    if a.selfcheck:
        code, lines = run_jvm(["--selfcheck"], SELFCHECK_TIMEOUT_S)
        assert code == 0, f"self-check JVM exited with {code}"
        assert "FCBENCH_SELFCHECK_CHECKER ok" in lines, "checker self-check missing"
        runs = {}
        for l in lines:
            if l.startswith("FCBENCH_SELFCHECK "):
                _, name, trace, payload = l.split(" ", 3)
                runs[(name, int(trace))] = json.loads(payload)
        for w in bench["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                r = runs[(w["name"], trace)]
                validate(r, bench[key])
                assert r["correct"] and r["failed"] == 0, (w["name"], trace, r)
                for name, m in r["metrics"].items():
                    print(f"  {w['name']} trace={trace} {name} = {m['value']} {m['unit']}")
        print("selfcheck ok")
        return 0

    if a.workload is None or a.seed is None or a.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace)]
    if a.trace:
        args += ["--trace-out",
                 os.path.join(build.build_dir(), f"spans-{a.workload}-{a.seed}.jsonl")]
    code, lines = run_jvm(args, RUN_TIMEOUT_S)
    result = last_result(lines, "FCBENCH_RESULT ")
    if code != 0 or result is None:
        print(f"fcbench: no result (exit code {code})", file=sys.stderr)
        return 1
    validate(result, bench["per_layer" if a.trace else "end_to_end"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
