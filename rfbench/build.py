"""Build file of the benchmark: compiles the program (src/main/scala) and the
benchmark (rfbench/src) with the Scala compiler shipped in Spark's jars.

Output goes to .bench_build/rfbench/<hash of the sources>/classes, so an
unchanged tree is compiled once. Run directly to build:

    python3 rfbench/build.py
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "rfbench"
SOURCE_DIRS = [ROOT / "src" / "main" / "scala", ROOT / "rfbench" / "src"]
COMPILER_JARS = ["scala-compiler-2.13.17.jar", "scala-library-2.13.17.jar",
                 "scala-reflect-2.13.17.jar"]


class BuildError(Exception):
    pass


def spark_jars():
    """The directory of Spark's jars: $SPARK_HOME/jars, else next to spark-submit."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(submit).resolve().parent.parent)
    jars = Path(home) / "jars" if home else None
    if jars is None or not jars.is_dir():
        raise BuildError("Spark's jars not found: set SPARK_HOME")
    return jars


def java():
    home = os.environ.get("JAVA_HOME")
    exe = Path(home) / "bin" / "java" if home else None
    return str(exe) if exe and exe.exists() else "java"


def sources():
    for d in SOURCE_DIRS:
        if not d.is_dir():
            raise BuildError(f"missing source directory {d.relative_to(ROOT)}")
    files = sorted(p for d in SOURCE_DIRS for p in d.rglob("*.scala"))
    if not files:
        raise BuildError("no Scala sources")
    return files


def build():
    """Compiles if needed; returns the classes directory."""
    files = sources()
    jars = spark_jars()
    digest = hashlib.sha256()
    for name in COMPILER_JARS:
        digest.update(name.encode())
    for f in files:
        digest.update(str(f.relative_to(ROOT)).encode())
        digest.update(f.read_bytes())
    out = WORK / digest.hexdigest()[:16] / "classes"
    if out.is_dir():
        return out
    tmp = out.parent / "tmp"
    shutil.rmtree(out.parent, ignore_errors=True)
    (tmp / "classes").mkdir(parents=True)
    compiler_cp = os.pathsep.join(str(jars / j) for j in COMPILER_JARS)
    cmd = [java(), "-Xmx1g", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
           "-cp", compiler_cp, "scala.tools.nsc.Main", "-nowarn",
           "-d", str(tmp / "classes"), "-classpath", str(jars / "*")] + [str(f) for f in files]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise BuildError(f"scalac exited with {proc.returncode}")
    (tmp / "classes").rename(out)
    shutil.rmtree(tmp, ignore_errors=True)
    return out


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        sys.exit(f"rfbench build: {e}")
