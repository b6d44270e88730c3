"""One pass of one workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD INPUT_SEED MODE SIZE

MODE is ``setup`` (import and build inputs only), ``pass`` (one untraced
pass) or ``trace`` (one traced pass).  The worker prints one JSON object
on its last line of standard output.

Only ``os``, ``sys`` and ``time`` are imported before the set-up clock
starts, so that ``setup_s`` charges the package's own imports to it.

An untraced pass runs under a speed probe: every ``PROBE_INTERVAL_S``
a signal handler does a fixed piece of reference work (``Fraction``,
big-int and dict arithmetic of the standard library, nothing of
plucker) and times it.  The host's speed drifts by up to a factor of
two over seconds, and the reference work slows with it, so the pass's
times divided by the mean probe time measure the program rather than
the moment.  The probe's own time is taken out of the pass's times.
"""

import os
import sys
import time

# a probe every 50 ms; the reference work takes about 3 ms (6% of a pass)
PROBE_INTERVAL_S = 0.05
# mean probe time at which reference-speed times equal measured times:
# about the probe's time on a quiet 2-core machine
PROBE_NOMINAL_S = 0.003


def main(argv):
    workload, seed, mode, size = argv[0], int(argv[1]), argv[2], argv[3]
    # one CPU, so that the pools' lock hand-offs never wait for the host
    # to wake the other vCPU, a wait that depends on the host's load
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))

    start = time.perf_counter()
    import plucker.cli as cli
    import plucker.verify as verify_mod
    import_s = time.perf_counter() - start

    import json
    import resource

    import workloads

    start = time.perf_counter()
    jobs = workloads.build(workload, seed, size)
    setup_s = import_s + time.perf_counter() - start
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        tracer.install()
    pins = _pins(workload, seed, size)

    probe = SpeedProbe() if tracer is None else None
    before = _cpu(resource)
    start = time.perf_counter()
    if probe is not None:
        probe.start()
    out = workloads.run_pass(jobs, cli, verify_mod, pins)
    if probe is not None:
        probe.stop()
    wall_s = time.perf_counter() - start
    cpu_s = _cpu(resource) - before

    rss_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "setup_s": setup_s,
        "peak_rss_mib": rss_kib / 1024,
        "attempted": len(out.checks),
        "failed": out.failed,
        "digests": out.digests,
        "pinned": pins is not None,
    }
    if probe is not None:
        result["wall_s"] -= probe.wall_s
        result["cpu_s"] -= probe.cpu_s
        result["probe_s"] = probe.mean_cpu_s()
        result["probes"] = len(probe.samples)
        scale = PROBE_NOMINAL_S / result["probe_s"]
        result["wall_ref_s"] = result["wall_s"] * scale
        result["cpu_ref_s"] = result["cpu_s"] * scale
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer, out)
        result["self_time_mismatches"] = spans.self_time_mismatches(tracer.spans)
    print(json.dumps(result))
    return 0


def reference_work():
    """Fixed work of the kinds plucker spends its time on, from the
    standard library only: rational and big-int arithmetic, dict updates."""
    from fractions import Fraction

    table = {}
    x = Fraction(1, 3)
    for i in range(350):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i + 3)
        key = (i * 7) % 101
        table[key] = table.get(key, 0) + (1 << (i % 200)) * x.denominator
    return table


class SpeedProbe:
    """Times ``reference_work`` every PROBE_INTERVAL_S of wall time while
    a pass runs, in the main thread, with the garbage collector paused so
    that a probe never pays for collecting the pass's objects."""

    def __init__(self):
        self.samples = []
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def _sample(self, signum, frame):
        import gc

        collecting = gc.isenabled()
        gc.disable()
        wall, cpu = time.perf_counter(), time.thread_time()
        reference_work()
        cpu = time.thread_time() - cpu
        wall = time.perf_counter() - wall
        self.samples.append(cpu)
        self.wall_s += wall
        self.cpu_s += cpu
        if collecting:
            gc.enable()

    def start(self):
        import signal

        reference_work()  # imports fractions outside the probes
        # a probe at each end, so that even a pass shorter than the
        # interval has samples
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample(None, None)

    def mean_cpu_s(self):
        return self.cpu_s / len(self.samples)


def _cpu(resource):
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _pins(workload, seed, size):
    """Pinned digests for the pinned seed at full size, else None."""
    import json

    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")
    with open(path) as fh:
        pins = json.load(fh)
    if seed != pins["seed"] or size != "full":
        return None
    return pins["sha256"].get(workload, {})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
