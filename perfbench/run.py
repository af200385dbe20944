#!/usr/bin/env python3
"""Process-isolated benchmark of the xroute broker daemons and simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run builds the daemon,
the CLI and the benchmark's own OCaml tool (perfbench/_ocaml) into
.bench_build. Daemon workloads spawn real xroute_brokerd processes and
drive them from this single-threaded process over two client
connections; sim-churn spawns `xroute.exe scenario`. With --trace 0 the
last stdout line is the end-to-end result; with --trace 1 it holds the
per-layer metrics of a traced in-process replay. See NOTES.md."""

import argparse
import ctypes
import gc
import hashlib
import json
import os
import resource
import select
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib as bl  # noqa: E402

PROBE_DOC_BASE = 2_000_000_000
PATHS_PER_DOC = 1024  # delivery key = doc * PATHS_PER_DOC + path

# Open-loop rates are constants of the workload, well below the closed
# loop's throughput at the commit that defined the benchmark (NOTES.md).
WORKLOADS = {
    "small-msg": {"kind": "daemon", "window": 512, "rate": 5000.0, "replay_pubs": 40000},
    "match-heavy": {"kind": "daemon", "window": 512, "rate": 3000.0, "replay_pubs": 10000},
    "sim-churn": {
        "kind": "sim",
        "spec": "kind=churn,clients=50000,levels=5,docs=6,batch=4096,seed={seed}",
        "setup_spec": "kind=churn,clients=1,levels=5,docs=1,batch=4096,seed={seed}",
        "replay_pubs": 10000,
    },
}
# Set-ups per run, on fresh processes: at least this many, and more until
# this much time has passed; setup_s is their median.
MIN_SETUPS = 3
SETUP_SECONDS = 2.0
# A sim-churn run covers this many scenario seeds: the work of a job
# depends on its seed (calibrated CPU of one seed's jobs agrees within a
# few percent, while seeds differ by up to a quarter).
SIM_SEEDS = 3
CLOSED_SHARE = 0.8  # of --seconds; the open loop gets the rest
# Closed-loop segments in the first WARMUP_S are left out (in the first
# 1.5 s the rates of small-msg ran up to a third above the rest).
WARMUP_S = 2.0
# The set-up probe is re-sent after 1 % of the time since the
# subscriptions went out (at least 0.2 ms), so the probe's own interval
# adds at most about 1 % to setup_s.
PROBE_SHARE = 0.01
PROBE_MIN_S = 0.0002
# The traced run of a daemon workload also times this small scenario
# in-process, so the sim.* layers are measured on every workload.
DAEMON_SIM_SPEC = "kind=churn,clients=4000,levels=2,docs=1,batch=4096,seed={seed}"
# A run is invalid when the generator cannot offer its load at all.
# Smaller lags stay in the measurement: latency is timed from due times.
LATENESS_P99_BOUND_S = 0.05
# Host-speed calibration (class Calib): rounds per calibration (about
# 0.1 s) and the reference time of one round, the median on the machine
# in NOTES.md when the benchmark was defined.
CALIB_ROUNDS = 120
CALIB_REF_ROUND_S = 0.0008
# A scenario job is stopped every CALIB_EVERY_S for a calibration of
# CALIB_SAMPLE_ROUNDS rounds (about 25 ms).
CALIB_EVERY_S = 0.5
CALIB_SAMPLE_ROUNDS = 30
# Both daemon loops run in segments this long; each ends once everything
# sent in it is delivered, and a calibration runs between segments.
SEGMENT_S = 0.5
TICK = os.sysconf("SC_CLK_TCK")

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
SRC = os.path.join(BUILD, "src")
BIN = os.path.join(SRC, "_build", "default")
BROKERD = os.path.join(BIN, "bin", "xroute_brokerd.exe")
XROUTE = os.path.join(BIN, "bin", "xroute.exe")
PBENCH = os.path.join(BIN, "perfbench_ocaml", "pbench.exe")

CHILDREN = []


def log(*args):
    print(*args, file=sys.stderr, flush=True)


class Invalid(Exception):
    """The run measured something, but not a valid result."""


# ---------------- build ----------------

def build():
    for need in ("dune-project", "lib", "bin", os.path.join("perfbench", "_ocaml")):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise SystemExit("perfbench: %s not found; run from a source checkout" % need)
    os.makedirs(SRC, exist_ok=True)
    for d, dst in (("lib", "lib"), ("bin", "bin"), (os.path.join("perfbench", "_ocaml"), "perfbench_ocaml")):
        target = os.path.join(SRC, dst)
        if os.path.exists(target):
            shutil.rmtree(target)
        shutil.copytree(os.path.join(ROOT, d), target)
    shutil.copy(os.path.join(ROOT, "dune-project"), os.path.join(SRC, "dune-project"))
    # No shared build cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled", XDG_CACHE_HOME=os.path.join(BUILD, "cache"))
    subprocess.run(
        ["dune", "build", "--root", SRC, "--profile", "release",
         "./bin/xroute_brokerd.exe", "./bin/xroute.exe", "./perfbench_ocaml/pbench.exe"],
        check=True, env=env, stdout=sys.stderr, stderr=sys.stderr)


# ---------------- processes ----------------

def die_with_parent():
    """Runs in the child before exec: deliver SIGTERM to it if this
    harness dies without cleaning up (PR_SET_PDEATHSIG)."""
    ctypes.CDLL(None).prctl(1, signal.SIGTERM)


def spawn(args, out):
    p = subprocess.Popen(args, stdout=out, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                         preexec_fn=die_with_parent)
    CHILDREN.append(p)
    return p


def stop(p):
    if p.poll() is None:
        p.terminate()
        try:
            p.wait(timeout=3)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
    if p in CHILDREN:
        CHILDREN.remove(p)


def stop_all():
    for p in list(CHILDREN):
        stop(p)


class Calib:
    """Host speed, from `pbench calib`: a fixed kernel that uses no xroute
    code. factor() times a number of rounds and returns that time over
    the reference time; above 1 the host is slower than the reference.
    Time metrics are divided by the mean factor of the calibrations
    around and during what they time (rates are multiplied), so they read
    as on a host running at the reference speed (NOTES.md)."""

    def __init__(self):
        self.p = subprocess.Popen([PBENCH, "calib"], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                  preexec_fn=die_with_parent)
        CHILDREN.append(self.p)
        self.rounds(CALIB_ROUNDS // 4)  # warm-up: first allocations, page faults
        self.factors = []

    def rounds(self, n):
        self.p.stdin.write(b"%d\n" % n)
        self.p.stdin.flush()
        line = self.p.stdout.readline()
        if not line:
            raise Invalid("pbench calib exited")
        return int(line.split()[0]) / 1e9

    def factor(self, n=CALIB_ROUNDS):
        f = self.rounds(n) / n / CALIB_REF_ROUND_S
        self.factors.append(f)
        return f

    def bracket(self, measure):
        """(measure(), mean factor of the calibrations just before, during
        and just after it); the calibration after one call serves as the
        one before the next."""
        if not self.factors:
            self.factor()
        first = len(self.factors) - 1
        value = measure()
        self.factor()
        return value, statistics.mean(self.factors[first:])

    def close(self):
        self.p.stdin.close()
        self.p.wait()
        CHILDREN.remove(self.p)


def vm_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise Invalid("no VmHWM for pid %d" % pid)


def cpu_s(pid):
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / TICK  # utime + stime


def self_cpu_s():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


# ---------------- inputs ----------------

class Inputs:
    def __init__(self, path):
        self.brokers, self.pub_setup, self.sub_setup, self.docs = [], [], [], []
        with open(path, "rb") as f:
            for raw in f:
                fields = raw.rstrip(b"\n").split(b"\t", 3)
                tag = fields[0]
                if tag == b"T":
                    self.pub_at, self.sub_at = int(fields[1]), int(fields[2])
                elif tag == b"B":
                    ns = [] if fields[2] == b"-" else [int(x) for x in fields[2].split(b",")]
                    self.brokers.append((int(fields[1]), ns))
                elif tag == b"PS":
                    self.pub_setup.append(fields[1])
                elif tag == b"SS":
                    self.sub_setup.append(fields[1])
                elif tag == b"PROBE":
                    self.probe = fields[1]
                elif tag == b"D":
                    self.docs.append([])
                elif tag == b"P":
                    sfx = fields[3]
                    path = int(sfx[1:sfx.index(b".", 1)])
                    assert path < PATHS_PER_DOC
                    ops = [int(x) for x in fields[2].split(b",")]
                    self.docs[-1].append((fields[1] == b"1", path, ops, sfx + b"\n"))
        self.ids = [b for b, _ in self.brokers]


def prep(workload, seed):
    """The workload's generated inputs, cached per seed and per build of
    the generator."""
    with open(PBENCH, "rb") as f:
        build_id = hashlib.sha1(f.read()).hexdigest()[:12]
    cache = os.path.join(BUILD, "inputs", build_id)
    os.makedirs(cache, exist_ok=True)
    path = os.path.join(cache, "%s-%d.txt" % (workload, seed))
    if not os.path.exists(path):
        fd, tmp = tempfile.mkstemp(dir=cache)
        os.close(fd)
        subprocess.run([PBENCH, "prep", workload, str(seed), tmp], check=True)
        os.replace(tmp, path)
    return Inputs(path)


class Stream:
    """The measured publication stream: the generated documents in
    order, cycled, each sent with a fresh doc id. Counts what was sent
    per document path, for the STATS cross-check."""

    def __init__(self, inp):
        self.inp = inp
        self.doc = 0
        self.sent = [[0] * len(d) for d in inp.docs]

    def next_doc(self):
        """(doc id, [(key, expected, line)]) for the next document."""
        i = self.doc % len(self.inp.docs)
        self.doc += 1
        prefix = b"M|1|P|%d" % self.doc
        out = []
        for j, (expect, path, _, sfx) in enumerate(self.inp.docs[i]):
            self.sent[i][j] += 1
            out.append((self.doc * PATHS_PER_DOC + path, expect, prefix + sfx))
        return out

    def totals(self):
        """Per broker: (publications reaching it, PRT match ops charged);
        and the expected deliveries."""
        reach = {b: 0 for b in self.inp.ids}
        ops = {b: 0 for b in self.inp.ids}
        deliveries = 0
        for d, counts in zip(self.inp.docs, self.sent):
            for (expect, _, per, _), n in zip(d, counts):
                deliveries += n * expect
                for b, o in zip(self.inp.ids, per):
                    if o >= 0:
                        reach[b] += n
                        ops[b] += n * o
        return reach, ops, deliveries


# ---------------- client connections ----------------

class Conn:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.rbuf = b""
        self.wbuf = bytearray()

    def send(self, data):
        self.wbuf += data
        self.flush()

    def flush(self):
        if self.wbuf:
            try:
                n = self.sock.send(self.wbuf)
                del self.wbuf[:n]
            except BlockingIOError:
                pass

    def read_lines(self):
        try:
            data = self.sock.recv(1 << 20)
        except BlockingIOError:
            return []
        # Acknowledge at once (Linux clears the flag as it goes): a delayed
        # ACK from this client would hold the broker's next small write
        # behind Nagle's algorithm, since the daemon does not set
        # TCP_NODELAY.
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
        if not data:
            raise Invalid("a broker closed the connection")
        lines = (self.rbuf + data).split(b"\n")
        self.rbuf = lines.pop()
        return lines


class Generator:
    """Single thread, two connections (publisher and subscriber). Every
    line that arrives goes to `on_line(conn, line, now)`."""

    def __init__(self, pub, sub, outputs):
        self.pub, self.sub = pub, sub
        self.conns = [pub] if sub is pub else [pub, sub]
        self.sel = selectors.DefaultSelector()
        for c in self.conns:
            self.sel.register(c.sock, selectors.EVENT_READ, c)
        # The brokers' output pipes are drained (and discarded) as they fill.
        for f in outputs:
            self.sel.register(f, selectors.EVENT_READ, None)
        self.on_line = None
        self.replies = []

    def pump(self, timeout):
        for c in self.conns:
            if c.wbuf:
                self.sel.modify(c.sock, selectors.EVENT_READ | selectors.EVENT_WRITE, c)
        for key, ev in self.sel.select(timeout):
            c = key.data
            if c is None:
                if not os.read(key.fd, 1 << 16):
                    raise Invalid("a broker exited")
                continue
            if ev & selectors.EVENT_WRITE:
                c.flush()
            if ev & selectors.EVENT_READ:
                lines = c.read_lines()
                now = time.perf_counter()
                for line in lines:
                    if line.startswith(b"M|"):
                        self.on_line(line, now)
                    else:
                        self.replies.append((c, line))
        for c in self.conns:
            if not c.wbuf:
                self.sel.modify(c.sock, selectors.EVENT_READ, c)

    def wait_reply(self, conn, pred, deadline):
        while True:
            for i, (c, line) in enumerate(self.replies):
                if c is conn and pred(line):
                    del self.replies[: i + 1]
                    return line
            if time.perf_counter() > deadline:
                raise Invalid("no reply from a broker")
            self.pump(0.01)

    def stats(self, conn):
        """The broker's metrics registry (STATS|json) as name -> item."""
        self.replies.clear()
        conn.send(b"STATS|json\n")
        deadline = time.perf_counter() + 30
        self.wait_reply(conn, lambda l: l.startswith(b"STATS|BEGIN"), deadline)
        body = []
        while True:
            line = self.wait_reply(conn, lambda l: True, deadline)
            if line.startswith(b"STATS|END"):
                break
            body.append(bl.unescape(line[2:].decode()))
        return {m["name"]: m for m in json.loads("\n".join(body))["metrics"]}


# ---------------- daemon workloads ----------------

class Instance:
    """One set of brokers plus the generator's two connections."""

    def __init__(self, inp):
        self.inp = inp
        self.procs, self.ports = {}, {}
        self.t_spawn = time.perf_counter()
        for b, ns in inp.brokers:
            args = [BROKERD, "--id", str(b), "--port", "0"]
            for n in ns:
                # The lower id never dials: a higher-id neighbor's port is
                # only a placeholder, the neighbor connects to us.
                args += ["--neighbor", "%d:127.0.0.1:%d" % (n, self.ports[n] if n < b else 9)]
            self.procs[b] = spawn(args, subprocess.PIPE)
            self.ports[b] = self.wait_port(self.procs[b])
        self.gen = Generator(Conn(self.ports[inp.pub_at]), Conn(self.ports[inp.sub_at]),
                             [p.stdout for p in self.procs.values()])
        self.pub, self.sub = self.gen.pub, self.gen.sub
        self.probe_n = 0
        self.probe_seen = set()
        self.gen.on_line = self.on_setup_line

    @staticmethod
    def wait_port(proc):
        """The port of the broker's `listening on port` line, read from its
        output pipe as soon as the line is written."""
        marker = b"listening on port"
        fd = proc.stdout.fileno()
        out = b""
        deadline = time.perf_counter() + 30
        while True:
            at = out.find(marker)
            if at >= 0 and b"\n" in out[at:]:
                return int(out[at + len(marker):].split()[0])
            left = deadline - time.perf_counter()
            if left <= 0:
                raise Invalid("xroute_brokerd did not report its port")
            if select.select([fd], [], [], left)[0]:
                data = os.read(fd, 4096)
                if not data:
                    raise Invalid("xroute_brokerd exited at start")
                out += data

    def on_setup_line(self, line, now):
        key = bl.parse_delivery(line)
        if key and key[0] >= PROBE_DOC_BASE:
            self.probe_seen.add(key[0])
        elif key:
            raise Invalid("publication delivered during set-up")

    def wait_links(self):
        """Until the publisher's broker has identified every neighbor:
        a FEDSTATS pull with ttl 1 answers with one summary per broker
        it can reach."""
        want = 1 + len(dict(self.inp.brokers)[self.inp.pub_at])
        deadline = time.perf_counter() + 30
        k = 0
        while True:
            k += 1
            self.pub.send(b"FEDSTATS|w%d|1|\n" % k)
            end = self.gen.wait_reply(
                self.pub, lambda l: l.startswith(b"FEDSTATS|END|w%d|" % k), deadline)
            if int(end.rsplit(b"|", 1)[1]) >= want:
                return

    def send_probe(self):
        self.probe_n += 1
        doc = PROBE_DOC_BASE + self.probe_n
        self.pub.send(b"M|1|P|%d%s\n" % (doc, self.inp.probe))
        return doc

    def setup(self):
        """Advertise, subscribe, then probe until a publication that only
        the last subscription matches is delivered. Returns set-up time."""
        if len(self.inp.brokers) > 1:
            self.wait_links()
        self.pub.send(b"".join(l + b"\n" for l in self.inp.pub_setup))
        # Subscriptions go out only once every broker holds every
        # advertisement, so each one is routed against the full SRT
        # rather than racing the advertisement flood.
        advs = sum(1 for l in self.inp.pub_setup if l.startswith(b"M|1|A|"))
        # Each STATS round trip is the wait; nothing sleeps in between.
        for b in self.inp.ids:
            while self.gen.stats(self.conn_to(b))["xroute_broker_advs_in_total"]["value"] < advs:
                pass
        self.sub.send(b"".join(l + b"\n" for l in self.inp.sub_setup))
        t_subs = time.perf_counter()
        deadline = t_subs + 120
        next_probe = t_subs
        while not self.probe_seen:
            now = time.perf_counter()
            if now > deadline:
                raise Invalid("the probe publication was never delivered")
            if now >= next_probe:
                self.send_probe()
                next_probe = now + max(PROBE_MIN_S, PROBE_SHARE * (now - t_subs))
            self.gen.pump(max(0.0, next_probe - time.perf_counter()))
        setup_s = time.perf_counter() - self.t_spawn
        # Drain: a last probe arrives behind every earlier one.
        marker = self.send_probe()
        while marker not in self.probe_seen:
            if time.perf_counter() > deadline:
                raise Invalid("the marker probe was never delivered")
            self.gen.pump(0.01)
        return setup_s

    def conn_to(self, b):
        return self.pub if b == self.inp.pub_at else self.sub

    def snapshot(self):
        return {b: self.gen.stats(self.conn_to(b)) for b in self.inp.ids}

    def cpu(self):
        return sum(cpu_s(p.pid) for p in self.procs.values())

    def peak_rss_mb(self):
        return max(vm_hwm_mb(p.pid) for p in self.procs.values())

    def close(self):
        for c in self.gen.conns:
            c.sock.close()
        for p in self.procs.values():
            stop(p)
            p.stdout.close()


def closed_loop(inst, stream, ledger, window, seconds, cal):
    """Keep `window` publications in flight, in segments of SEGMENT_S. A
    publication completes when it, or a later one (brokers keep
    per-connection order), is delivered; a segment ends at the last
    expected delivery of the last document it sent, and a calibration
    follows it. Returns the publications sent, the time spent in
    segments, the upper quartile (nearest rank) of the calibrated segment
    rates after the warm-up, the same of the raw rates, and the
    generator's CPU share."""
    done = [0]
    last = [0.0]

    def on_line(line, now):
        key = bl.parse_delivery(line)
        if key is None or key[0] >= PROBE_DOC_BASE:
            return
        seq = ledger.deliver(key[0] * PATHS_PER_DOC + key[1])
        if seq is not None and seq > done[0]:
            done[0] = seq
            last[0] = now

    def segment():
        sent0 = sent[0]
        t0 = time.perf_counter()
        stop_at = min(t0 + SEGMENT_S, phase_end)
        sending = True
        while sending or ledger.pending:
            if sending:
                batch = []
                while sent[0] - done[0] < window:
                    for key, expect, line in stream.next_doc():
                        sent[0] += 1
                        if expect:
                            ledger.expect(key, sent[0])
                        batch.append(line)
                    if time.perf_counter() >= stop_at:
                        sending = False
                        break
                if batch:
                    inst.pub.send(b"".join(batch))
            inst.gen.pump(0.05)
            if time.perf_counter() > stop_at + 60:
                raise Invalid("closed loop: deliveries stopped arriving")
        return sent[0] - sent0, last[0] - t0

    inst.gen.on_line = on_line
    sent = [0]
    segs = []
    cpu0 = self_cpu_s()
    t_start = time.perf_counter()
    phase_end = t_start + seconds
    while time.perf_counter() < phase_end:
        segs.append(cal.bracket(segment))
    busy = sum(wall for (_, wall), _ in segs)
    measured = segs[int(WARMUP_S / SEGMENT_S):]
    raw = [n / wall for (n, wall), _ in measured]
    rates = [r * f for r, (_, f) in zip(raw, measured)]
    log("closed-loop segments (1/s, calibrated): %s; factors %s" % (
        " ".join("%.0f" % r for r in rates), " ".join("%.3f" % f for _, f in segs)))
    return (sent[0], busy, bl.nearest_rank(rates, 75), bl.nearest_rank(raw, 75),
            (self_cpu_s() - cpu0) / (time.perf_counter() - t_start))


def pin(pids, cpus):
    """Set the CPU affinity of every thread of each process."""
    for pid in pids:
        for tid in os.listdir("/proc/%d/task" % pid):
            os.sched_setaffinity(int(tid), cpus)


def pinned_open_loop(inst, stream, ledger, rate, seconds):
    """The open loop with this busy-polling generator on one CPU and the
    brokers on the others, so the generator never delays a broker; on a
    single CPU nothing is pinned."""
    cpus = sorted(os.sched_getaffinity(0))
    brokers = [p.pid for p in inst.procs.values()]
    if len(cpus) > 1:
        pin([os.getpid()], {cpus[0]})
        pin(brokers, set(cpus[1:]))
    try:
        return open_loop(inst, stream, ledger, rate, seconds)
    finally:
        if len(cpus) > 1:
            pin([os.getpid()] + brokers, set(cpus))


def open_loop(inst, stream, ledger, rate, seconds):
    """Send on a fixed schedule at `rate`; latency runs from each
    publication's due time to its arrival on the subscriber socket."""
    docs = []
    n = 0
    while n < rate * seconds:
        d = stream.next_doc()
        docs.extend(d)
        n += len(d)
    latencies, lateness = [], []

    def on_line(line, now):
        key = bl.parse_delivery(line)
        if key is None or key[0] >= PROBE_DOC_BASE:
            return
        due = ledger.deliver(key[0] * PATHS_PER_DOC + key[1])
        if due is not None:
            latencies.append(now - due)

    inst.gen.on_line = on_line
    cpu0 = self_cpu_s()
    t0 = time.perf_counter() + 0.01
    i = 0
    while i < n or ledger.pending:
        now = time.perf_counter()
        k = bl.due_count(t0, rate, now, n)
        if k > i:
            batch = []
            for j in range(i, k):
                due = bl.due_time(t0, rate, j)
                lateness.append(now - due)
                key, expect, line = docs[j]
                if expect:
                    ledger.expect(key, due)
                batch.append(line)
            inst.pub.send(b"".join(batch))
            i = k
        # Busy-poll: a generator asleep in select wakes late on a busy host,
        # and that lateness would count in every latency.
        inst.gen.pump(0)
        if now > t0 + seconds + 60:
            raise Invalid("open loop: deliveries stopped arriving")
    wall = time.perf_counter() - t0
    return latencies, lateness, (self_cpu_s() - cpu0) / wall


def cross_check(inp, stream, before, after):
    """The daemons' own counters against the generator's and the
    replica's: publications in, PRT match operations, deliveries."""
    reach, ops, deliveries = stream.totals()

    def delta(b, name, field="value"):
        return after[b][name][field] - before[b][name][field]

    problems = []
    for b in inp.ids:
        checks = [
            ("xroute_broker_pubs_in_total", delta(b, "xroute_broker_pubs_in_total"), reach[b]),
            ("xroute_prt_pub_match_ops count", delta(b, "xroute_prt_pub_match_ops", "count"), reach[b]),
            ("xroute_prt_pub_match_ops sum", delta(b, "xroute_prt_pub_match_ops", "sum"), ops[b]),
        ]
        if b == inp.sub_at:
            checks.append(
                ("xroute_broker_deliveries_total", delta(b, "xroute_broker_deliveries_total"), deliveries))
        for name, got, want in checks:
            if got != want:
                problems.append("broker %d %s: %s, expected %s" % (b, name, got, want))
    return problems


def daemon_run(name, w, seed, seconds):
    inp = prep(name, seed)
    cal = Calib()

    def start():
        i = Instance(inp)
        return i, i.setup()

    setups = []
    t0 = time.perf_counter()
    while len(setups) < MIN_SETUPS or time.perf_counter() - t0 < SETUP_SECONDS:
        if setups:
            inst.close()
        (inst, setup_s), f = cal.bracket(start)
        setups.append((setup_s, f))
    try:
        stream = Stream(inp)
        ledger = bl.Ledger()
        before = inst.snapshot()
        cpu0 = inst.cpu()
        sent, closed_wall, rate, raw_rate, closed_gen_cpu = closed_loop(
            inst, stream, ledger, w["window"], seconds * CLOSED_SHARE, cal)
        closed_cpu = inst.cpu() - cpu0
        latencies, lateness, gen_cpu = pinned_open_loop(
            inst, stream, ledger, w["rate"], seconds * (1 - CLOSED_SHARE))
        after = inst.snapshot()
        rss = inst.peak_rss_mb()
    finally:
        inst.close()
        cal.close()
    problems = cross_check(inp, stream, before, after)
    late99 = bl.nearest_rank(lateness, 99)
    log("closed loop: %d pubs in %.3f s (%.0f/s overall), brokerd cpu %.3f s, generator cpu "
        "%.2f; open loop: %d latency samples (overall ms: %s), generator lateness p99 %.3f "
        "ms, generator cpu %.2f" % (
            sent, closed_wall, sent / closed_wall, closed_cpu, closed_gen_cpu, len(latencies),
            " ".join("p%g %.3f" % (q, bl.nearest_rank(latencies, q) * 1e3)
                     for q in (50, 90, 95, 99, 99.9)),
            late99 * 1e3, gen_cpu))
    if late99 > LATENESS_P99_BOUND_S:
        problems.append("generator lateness p99 %.3f ms beyond the %.1f ms bound" % (
            late99 * 1e3, LATENESS_P99_BOUND_S * 1e3))
    metrics = {
        "throughput_per_s": (rate, "1/s"),
        "setup_s": (statistics.median(s / f for s, f in setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    extra = {"closed_pubs": sent, "closed_wall_s": closed_wall, "brokerd_cpu_s": closed_cpu}
    log("uncalibrated: throughput %.0f/s, set-up %.5f s; %d set-ups, factors %s" % (
        raw_rate, statistics.median(s for s, _ in setups), len(setups),
        " ".join("%.3f" % f for _, f in setups)))
    return ledger.expected, ledger.failed, problems, metrics, extra


# ---------------- sim-churn ----------------

def scenario_job(spec, cal=None):
    """Run one scenario child. VmHWM is sampled from its /proc while it
    runs, since a zombie has none left; its CPU time comes from wait4,
    to the microsecond. With `cal`, every CALIB_EVERY_S the child is
    stopped for a short calibration, so the host speed is sampled all
    through the job. (wall s, CPU s, peak RSS MB, its printed fields)."""
    t0 = time.perf_counter()
    p = subprocess.Popen([XROUTE, "scenario", "--spec", spec], stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL,
                         preexec_fn=die_with_parent)
    CHILDREN.append(p)
    # The child prints only when it is done; sample until then, and once
    # more at the first byte.
    hwm = 0.0
    next_calib = t0 + CALIB_EVERY_S
    exited = None
    while exited is None:
        ready = select.select([p.stdout], [], [], 0.05)[0]
        try:
            hwm = vm_hwm_mb(p.pid)
        except (OSError, Invalid):
            pass
        if ready:
            break
        if cal and time.perf_counter() >= next_calib:
            os.kill(p.pid, signal.SIGSTOP)
            _, status, usage = os.wait4(p.pid, os.WUNTRACED)
            if os.WIFSTOPPED(status):
                cal.factor(CALIB_SAMPLE_ROUNDS)
                os.kill(p.pid, signal.SIGCONT)
            else:
                exited = status, usage
            next_calib = time.perf_counter() + CALIB_EVERY_S
    out = p.stdout.read()
    _, status, usage = exited or os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    CHILDREN.remove(p)
    if p.returncode != 0:
        raise Invalid("scenario child exited with %d" % p.returncode)
    fields = {}
    for line in out.decode().splitlines():
        k, _, v = line.partition(":")
        fields[k.strip()] = v.strip()
    return wall, usage.ru_utime + usage.ru_stime, hwm, fields


def client_ops(fields):
    """Subscribes + unsubscribes + documents of a scenario job."""
    subs, unsubs = fields["clients"].split("(", 1)[1].split(" subs, ")
    return int(subs) + int(unsubs.split()[0]) + int(fields["published"].split()[0])


def pinned_digest(seed):
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")) as f:
        return json.load(f).get(str(seed))


def sim_seeds(seed):
    """The scenario seeds of a run: SIM_SEEDS of them, disjoint between
    run seeds."""
    return [seed * SIM_SEEDS + j for j in range(SIM_SEEDS)]


def sim_run(name, w, seed, seconds):
    """One full job per scenario seed of the run, then more in turn until
    `seconds` have passed. Time metrics are the children's CPU seconds,
    so time the vCPU spends descheduled does not count, each calibrated
    by the host speed measured around its job."""
    seeds = sim_seeds(seed)
    cal = Calib()
    try:
        setups = []
        t0 = time.perf_counter()
        while len(setups) < MIN_SETUPS or time.perf_counter() - t0 < SETUP_SECONDS:
            setups.append(cal.bracket(lambda: scenario_job(w["setup_spec"].format(seed=seeds[0]))))
        jobs = {s: [] for s in seeds}  # seed -> [(job, factor)]
        t0 = time.perf_counter()
        n = 0
        while n < len(seeds) or time.perf_counter() - t0 < seconds:
            s = seeds[n % len(seeds)]
            jobs[s].append(cal.bracket(lambda: scenario_job(w["spec"].format(seed=s), cal)))
            n += 1
    finally:
        cal.close()
    problems = []
    failed = 0
    ops = cpu = 0.0
    for s, runs in jobs.items():
        digests = {j[3]["ledger digest"] for j, _ in runs}
        pinned = pinned_digest(s)
        if len(digests) != 1 or (pinned is not None and digests != {pinned}):
            problems.append("seed %d: ledger digests %s, pinned %s" % (s, sorted(digests), pinned))
            failed += 1
        ops += client_ops(runs[0][0][3])
        cpu += statistics.median(j[1] / f for j, f in runs)
        log("sim-churn seed %d: %d jobs, wall s %s, cpu s %s, factors %s, digest %s" % (
            s, len(runs), " ".join("%.3f" % j[0] for j, _ in runs),
            " ".join("%.3f" % j[1] for j, _ in runs), " ".join("%.3f" % f for _, f in runs),
            sorted(digests)))
    log("sim-churn set-up cpu s %s, factors %s" % (
        " ".join("%.4f" % s[1] for s, _ in setups), " ".join("%.3f" % f for _, f in setups)))
    metrics = {
        "throughput_per_s": (ops / cpu, "1/s"),
        "setup_s": (statistics.median(s[1] / f for s, f in setups), "s"),
        "peak_rss_mb": (max(j[2] for runs in jobs.values() for j, _ in runs), "MB"),
    }
    return n, failed, problems, metrics, None


# ---------------- traced replay ----------------

def read_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            name, parent, t0, t1, words = line.split()
            spans.append((name, int(parent), int(t0), int(t1), float(words)))
    return spans


def layer_metrics(replay, spans, process_us, replay_us, cpu_util):
    """Per-layer metrics from the replay's counters and spans. Line and
    publication layers count publication hops only (hops with a
    broker.publish child); *_per_pub divides by source publications.
    `process_us` and `replay_us` are the CPU of the processes under test
    and the in-process replay's time for the same unit of work."""
    pub_hops = {p for name, p, _, _, _ in spans if name == "broker.publish"}
    in_pub = [s for s in spans if s[1] in pub_hops]
    other = [s for s in spans if s[1] not in pub_hops]
    pub = bl.self_times(in_pub)
    rest = bl.self_times(other)
    P = replay["stream_pubs"]
    hops = max(1, len(pub_hops))

    def ns(table, name):
        return table.get(name, (0, 0, 0, 0.0))[2]

    def words(table, name):
        return table.get(name, (0, 0, 0, 0.0))[3]

    def count(table, name):
        return table.get(name, (0, 0, 0, 0.0))[0]

    def per(x, n):
        return x / n if n else 0.0

    untraced = min(replay["untraced_ns"])
    sim = replay["sim"]
    m = {
        "linebuf.ns_per_line": (per(ns(pub, "linebuf"), hops), "ns"),
        "codec.decode.ns_per_line": (per(ns(pub, "codec.decode"), hops), "ns"),
        "codec.decode.words_per_line": (per(words(pub, "codec.decode"), hops), "words"),
        "xml_paths.make.ns_per_pub": (per(ns(rest, "xml_paths.make"), P), "ns"),
        "broker.publish.ns_per_pub": (per(ns(pub, "broker.publish"), P), "ns"),
        "broker.publish.words_per_pub": (per(words(pub, "broker.publish"), P), "words"),
        "rtable.prt.entries_per_pub": (per(replay["prt_entries"], P), "count"),
        "rtable.prt.match_ns_per_pub": (per(ns(rest, "rtable.prt.match"), P), "ns"),
        "broker.outputs_per_pub": (per(replay["outputs"], P), "count"),
        "broker.dropped_frac": (per(replay["dropped"], replay["pubs"]), "ratio"),
        "codec.encode.ns_per_copy": (per(ns(pub, "codec.encode"), replay["copies"]), "ns"),
        "codec.encode.copies_per_pub": (per(replay["copies"], P), "count"),
        "span.ns_per_pub": (per(ns(pub, "span"), P), "ns"),
        "health.ns_per_pub": (per(ns(pub, "health"), P), "ns"),
        "broker.subscribe.ns_per_sub": (
            per(ns(rest, "broker.subscribe"), count(rest, "broker.subscribe")), "ns"),
        "rtable.srt.ops_per_sub": (per(replay["srt_ops"], replay["subs"]), "count"),
        "rtable.prt.cover_checks_per_sub": (per(replay["cover_checks"], replay["subs"]), "count"),
        "broker.forwards_per_sub": (per(replay["forwards"], replay["subs"]), "count"),
        "broker.unsubscribe.ns_per_op": (
            per(ns(rest, "broker.unsubscribe"), count(rest, "broker.unsubscribe")), "ns"),
        "sim.ns_per_event": (per(sim["ns"], sim["events"]), "ns"),
        "sim.minor_words_per_event": (per(sim["minor_words"], sim["events"]), "words"),
        "sim.major_gcs": (sim["major_gcs"], "count"),
        "brokerd.cpu_util": (cpu_util, "ratio"),
        "process.cpu_us_per_op": (process_us, "us"),
        "replay.us_per_op": (replay_us, "us"),
        # The difference of two measurements; it can be negative.
        "daemon.loop_us_per_pub": (process_us - replay_us, "us"),
        "trace.overhead_frac": (replay["traced_ns"] / untraced - 1.0, "ratio"),
    }
    return m


def replay(name, w, seed, spec):
    spans_path = os.path.join(BUILD, "spans-%s-%d.txt" % (name, seed))
    args = [PBENCH, "replay", name, str(seed), str(w["replay_pubs"]), spans_path, spec]
    out = subprocess.run(args, check=True, stdout=subprocess.PIPE, timeout=170).stdout
    return json.loads(out.decode().strip().splitlines()[-1]), read_spans(spans_path)


def traced_run(name, w, seed, seconds):
    """The unit of work is a publication on the daemon workloads (brokerd
    CPU over the closed loop against the untraced replay) and a client
    operation on sim-churn (the child's CPU against Scenario.run in-process)."""
    if w["kind"] == "daemon":
        attempted, failed, problems, _, extra = daemon_run(name, w, seed, seconds)
        process_us = extra["brokerd_cpu_s"] / extra["closed_pubs"] * 1e6
        util = extra["brokerd_cpu_s"] / extra["closed_wall_s"]
        rep, spans = replay(name, w, seed, DAEMON_SIM_SPEC.format(seed=seed))
        replay_us = min(rep["untraced_ns"]) / rep["stream_pubs"] / 1e3
    else:
        spec = w["spec"].format(seed=sim_seeds(seed)[0])
        wall, cpu, _, fields = scenario_job(spec)
        attempted, failed, problems = 1, 0, []
        ops = client_ops(fields)
        process_us, util = cpu / ops * 1e6, cpu / wall
        rep, spans = replay(name, w, seed, spec)
        replay_us = rep["sim"]["ns"] / ops / 1e3
        if rep["sim"]["digest"] != fields["ledger digest"]:
            problems.append("in-process ledger digest %s, child %s" % (
                rep["sim"]["digest"], fields["ledger digest"]))
            failed = 1
    return attempted, failed, problems, layer_metrics(rep, spans, process_us, replay_us, util)


# ---------------- main ----------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    w = WORKLOADS[args.workload]
    build()
    # Reference counting frees everything the generator allocates; keep
    # cyclic collection passes over its tables out of the timed loops.
    gc.disable()
    try:
        if args.trace:
            attempted, failed, problems, metrics = traced_run(
                args.workload, w, args.seed, args.seconds)
        else:
            run = daemon_run if w["kind"] == "daemon" else sim_run
            attempted, failed, problems, metrics, _ = run(args.workload, w, args.seed, args.seconds)
    except Invalid as e:
        log("perfbench: invalid run: %s" % e)
        return 1
    finally:
        stop_all()
    for p in problems:
        log("perfbench: check failed: %s" % p)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def on_signal(signum, _frame):
    stop_all()
    sys.exit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        sys.exit(main())
    finally:
        stop_all()
