"""Build file of the benchmark.

Compiles the program's sources (`src/main/scala`) together with the
benchmark's own (`fcbench/src`) with the Scala compiler that ships in the
Spark distribution's `jars` directory, against the Spark jars the
repository's `build.sbt` uses. No dependency is resolved, so the build
needs no network and no sbt state. Output goes to
`$CARGO_TARGET_DIR/fcbench/classes` (default `.bench_build`); a stamp of
the sources' content skips the compile when nothing changed.

Run on its own: `python3 fcbench/build.py` from the repository root.
"""
import hashlib
import os
import shutil
import subprocess
import sys

SCALA_VERSION = "2.13.17"
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
PROGRAM_RESOURCES = os.path.join(ROOT, "src", "main", "resources")
BENCH_SOURCES = os.path.join(HERE, "src")


def spark_jars():
    """The Spark distribution's `jars`: under `$SPARK_HOME`, else beside a
    `spark-submit` on the PATH; the first that holds the Scala compiler."""
    homes = [os.environ.get("SPARK_HOME", "")]
    for d in os.environ.get("PATH", "").split(os.pathsep):
        if os.path.isfile(os.path.join(d, "spark-submit")):
            homes.append(os.path.dirname(os.path.realpath(d)))
    for home in filter(None, homes):
        jars = os.path.join(home, "jars")
        if os.path.isfile(os.path.join(jars, f"scala-compiler-{SCALA_VERSION}.jar")):
            return jars
    raise SystemExit(f"fcbench: no Spark distribution with Scala {SCALA_VERSION}; "
                     "set SPARK_HOME")


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "fcbench")


def scala_files(top):
    out = []
    for d, _, files in os.walk(top):
        out += [os.path.join(d, f) for f in files if f.endswith(".scala")]
    return sorted(out)


def compiler_classpath():
    jars = [f"scala-{p}-{SCALA_VERSION}.jar" for p in ("compiler", "library", "reflect")]
    return os.pathsep.join(os.path.join(spark_jars(), j) for j in jars)


def runtime_classpath():
    return os.pathsep.join([os.path.join(build_dir(), "classes"), PROGRAM_RESOURCES,
                            os.path.join(spark_jars(), "*")])


def build(log=sys.stderr):
    """Compile if the sources changed; return the classes directory."""
    if not os.path.isdir(os.path.join(PROGRAM_SOURCES, "repro")):
        raise SystemExit(f"fcbench: no program sources at {PROGRAM_SOURCES}")
    sources = scala_files(PROGRAM_SOURCES) + scala_files(BENCH_SOURCES)
    h = hashlib.sha256(SCALA_VERSION.encode())
    for f in sources:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    stamp = h.hexdigest()
    out = build_dir()
    classes = os.path.join(out, "classes")
    stamp_file = os.path.join(out, "stamp")
    if os.path.isdir(classes) and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read().strip() == stamp:
                return classes
    tmp = classes + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    print(f"fcbench: compiling {len(sources)} sources", file=log, flush=True)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-cp", compiler_classpath(), "scala.tools.nsc.Main",
           "-nowarn", "-classpath", os.path.join(spark_jars(), "*"), "-d", tmp] + sources
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        print(proc.stdout, file=log)
        raise SystemExit("fcbench: compile failed")
    shutil.rmtree(classes, ignore_errors=True)
    os.rename(tmp, classes)
    with open(stamp_file, "w") as fh:
        fh.write(stamp + "\n")
    return classes


if __name__ == "__main__":
    print(build())
