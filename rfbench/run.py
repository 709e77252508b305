"""iRangeGraph RFANN benchmark.

    python3 rfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 rfbench/run.py --self-test

Builds the program from source (see build.py), then runs one workload in a
JVM: generates vectors and ranges from the seed, computes ground truth,
builds the index and runs a closed query loop. The last line of standard
output is one JSON object with "correct", "attempted", "failed" and
"metrics". Workloads and metrics are listed in BENCHMARK.json.
"""

import argparse
import os
import signal
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

TIMEOUT_S = 170
WORKLOADS = ["mixed-ld-4c", "multiattr-plus"]

# Spark on JDK 17 needs these opens in any JVM that runs a driver.
OPENS = ["java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
         "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
         "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
         "sun.util.calendar"]


def jvm(main_class, args, classes):
    """Runs `main_class` to completion, killing it after TIMEOUT_S; returns its exit code."""
    work = build.WORK / "work"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    cp = os.pathsep.join([str(classes), str(build.spark_jars() / "*")])
    cmd = ([build.java(), "-Xms1g", "-Xmx1g", "-XX:-UsePerfData",
            f"-Djava.io.tmpdir={work / 'tmp'}",
            f"-Dlog4j2.configurationFile={build.ROOT / 'rfbench' / 'log4j2.properties'}"]
           + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in OPENS]
           + ["-cp", cp, main_class] + args + ["--work-dir", str(work)])
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"rfbench: killed after {TIMEOUT_S} s\n")
        return 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main():
    # Turn SIGTERM into SystemExit so that jvm() still stops the JVM.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and (a.workload is None or a.seed is None or a.seconds is None):
        ap.error("--workload, --seed and --seconds are required")
    try:
        classes = build.build()
    except build.BuildError as e:
        sys.exit(f"rfbench build: {e}")
    sys.stdout.flush()
    if a.self_test:
        sys.exit(jvm("rfbench.SelfTest", [], classes))
    sys.exit(jvm("rfbench.Main", ["--workload", a.workload, "--seed", str(a.seed),
                                  "--seconds", str(a.seconds), "--trace", str(a.trace)],
                 classes))


if __name__ == "__main__":
    main()
