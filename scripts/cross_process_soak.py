#!/usr/bin/env python3
"""Cross-process chaos soak: real daemons, real sockets, real faults.

Usage: cross_process_soak.py BUILD_DIR [--seeds N] [--invocations N]
                             [--timeout S]

Spawns one vinelet-managerd and three vinelet-workerd processes on a
loopback TCP port per seed, with socket-boundary fault injection wired
into the workers' transports (net::FaultInjector, applied the moment a
frame would be committed to the wire):

  * worker 1 delays 20% of its frames by 5-40 ms (reordering across the
    delay boundary);
  * worker 2 duplicates 10% of its frames (delivery is at-least-once);
  * worker 3 partitions itself from the hub once it has finished
    PARTITION_AFTER invocations (silence, not an error; counted in work,
    not seconds, so it lands mid-run on any machine) and is then
    SIGKILLed, so the manager must notice the death via TCP teardown and
    requeue the victim's in-flight work.

Drop/corrupt probabilities stay 0 on purpose, mirroring the in-process
chaos soak: a dropped control frame below the manager's probe layer is
*designed* to surface as a hang, so sustained drops are not a passable
plan.  Partition-then-kill covers the loss case instead: everything the
victim would have sent is lost wholesale, and recovery must still drain.

The gate: the victim must partition before vinelet-managerd exits (else
the kill leg never ran), vinelet-managerd runs with --min-workers 2 and
must exit 0 (every invocation completed despite the attrition), the two
surviving workers must exit 0 on the manager's Shutdown broadcast, and
nothing may outlive the per-seed timeout.
"""
import argparse
import os
import signal
import subprocess
import sys
import threading
import time

# Invocations the victim finishes before it partitions itself.
PARTITION_AFTER = 50


def find_binary(build, name):
    for candidate in (os.path.join(build, name),
                      os.path.join(build, "src", "apps", name)):
        if os.access(candidate, os.X_OK):
            return candidate
    sys.exit(f"cannot find {name} under {build}")


def wait_for(proc, timeout_s, name, failures):
    try:
        code = proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        failures.append(f"{name}: still running after {timeout_s:.0f}s")
        return None
    return code


def run_seed(build, seed, invocations, timeout_s, failures):
    port = 17170 + (seed % 64)
    managerd = find_binary(build, "vinelet-managerd")
    workerd = find_binary(build, "vinelet-workerd")
    hub = f"127.0.0.1:{port}"

    manager = subprocess.Popen(
        [managerd, "--port", str(port), "--workers", "3",
         "--min-workers", "2", "--invocations", str(invocations),
         "--count", "96", "--timeout", str(timeout_s)])
    time.sleep(0.3)  # let the hub bind before the workers dial

    delay_worker = subprocess.Popen(
        [workerd, "--hub", hub, "--id", "1",
         "--fault-seed", str(1000 + seed), "--fault-delay-p", "0.2",
         "--fault-delay-min-ms", "5", "--fault-delay-max-ms", "40"])
    dup_worker = subprocess.Popen(
        [workerd, "--hub", hub, "--id", "2",
         "--fault-seed", str(2000 + seed), "--fault-dup-p", "0.1"])
    victim = subprocess.Popen(
        [workerd, "--hub", hub, "--id", "3",
         "--fault-seed", str(3000 + seed),
         "--partition-after", str(PARTITION_AFTER)],
        stderr=subprocess.PIPE, text=True)
    partitioned = threading.Event()

    def watch_victim():
        for line in victim.stderr:
            sys.stderr.write(line)
            if "partitioned from hub" in line:
                partitioned.set()

    watcher = threading.Thread(target=watch_victim, daemon=True)
    watcher.start()

    # The victim joins, takes work and goes silent once it has finished
    # PARTITION_AFTER invocations; kill it shortly after so the manager
    # sees the TCP teardown and runs death recovery on its assignments.
    # The manager *cannot* finish while the victim is alive-but-partitioned
    # — its results are swallowed at the socket boundary — so the kill is
    # what unblocks the run.
    deadline = time.monotonic() + timeout_s
    while (not partitioned.wait(0.05) and manager.poll() is None
           and victim.poll() is None and time.monotonic() < deadline):
        pass
    if not partitioned.is_set():
        if manager.poll() is not None:
            failures.append(f"seed {seed}: managerd exited before the victim "
                            f"partitioned, so the kill leg never ran")
        elif victim.poll() is not None:
            failures.append(f"seed {seed}: victim worker died before it "
                            f"partitioned (exit {victim.returncode})")
        else:
            failures.append(f"seed {seed}: victim did not partition within "
                            f"{timeout_s:.0f}s")
    else:
        time.sleep(0.5)
        if victim.poll() is not None:
            failures.append(f"seed {seed}: victim worker died before the "
                            f"kill (exit {victim.returncode})")
    if victim.poll() is None:
        victim.send_signal(signal.SIGKILL)
    victim.wait()
    watcher.join()

    code = wait_for(manager, timeout_s + 30, f"seed {seed}: managerd",
                    failures)
    if code is not None and code != 0:
        failures.append(f"seed {seed}: managerd exit {code}")

    # Manager Stop() broadcasts Shutdown; the survivors must exit clean.
    for name, proc in (("delay worker", delay_worker),
                       ("dup worker", dup_worker)):
        code = wait_for(proc, 30, f"seed {seed}: {name}", failures)
        if code is not None and code != 0:
            failures.append(f"seed {seed}: {name} exit {code}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("build", help="build dir with the vinelet daemons")
    parser.add_argument("--seeds", type=int, default=1)
    parser.add_argument("--invocations", type=int, default=1500)
    parser.add_argument("--timeout", type=float, default=120.0)
    args = parser.parse_args()

    failures = []
    for seed in range(args.seeds):
        print(f"=== cross-process soak seed {seed} ===", flush=True)
        start = time.monotonic()
        run_seed(args.build, seed, args.invocations, args.timeout, failures)
        print(f"=== seed {seed} done in {time.monotonic() - start:.1f}s ===",
              flush=True)

    if failures:
        print("\ncross-process soak FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        sys.exit(1)
    print(f"\ncross-process soak OK ({args.seeds} seed(s), "
          f"{args.invocations} invocation(s) each, 1 worker killed per seed)")


if __name__ == "__main__":
    main()
