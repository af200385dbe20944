"""Pure pieces of the perfbench harness: percentiles, the open-loop
schedule, delivery accounting against the oracle, span self times and
the wire parsing the generator needs. Unit-tested by test_benchlib.py."""

import math


def nearest_rank(values, q):
    """Nearest-rank percentile q (0 < q <= 100) of a non-empty sample."""
    if not values:
        raise ValueError("empty sample")
    if not 0 < q <= 100:
        raise ValueError("percentile out of range")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def due_time(t0, rate, i):
    """Scheduled send time of the i-th open-loop publication. Every time
    derives from the phase start, so a late send never shifts the
    schedule of the ones after it."""
    return t0 + i / rate


def due_count(t0, rate, now, limit):
    """How many of the first `limit` publications are due at `now`."""
    if now < t0:
        return 0
    return min(limit, math.floor((now - t0) * rate) + 1)


class Ledger:
    """Expected deliveries of one run, keyed by (doc, path). `expect`
    records a key with a value (its send sequence or due time); `deliver`
    pops it. Deliveries of keys never expected, or delivered twice, are
    counted; whatever is still expected at the end is missing."""

    def __init__(self):
        self.pending = {}
        self.seen = set()
        self.expected = 0
        self.delivered = 0
        self.unexpected = 0
        self.duplicate = 0

    def expect(self, key, value):
        if key in self.pending or key in self.seen:
            raise ValueError("key expected twice: %r" % (key,))
        self.pending[key] = value
        self.expected += 1

    def deliver(self, key):
        value = self.pending.pop(key, None)
        if value is not None:
            self.seen.add(key)
            self.delivered += 1
        elif key in self.seen:
            self.duplicate += 1
        else:
            self.unexpected += 1
        return value

    @property
    def missing(self):
        return len(self.pending)

    @property
    def failed(self):
        return self.missing + self.unexpected + self.duplicate


def parse_delivery(line):
    """(doc, path) of a delivered publication line
    `M|1|P|<doc>.<path>.<size>.<count>[...]|...`, or None for any other
    line."""
    if not line.startswith(b"M|1|P|"):
        return None
    dot = line.index(b".", 6)
    dot2 = line.index(b".", dot + 1)
    return int(line[6:dot]), int(line[dot + 1:dot2])


def unescape(s):
    """Inverse of the daemon's reply framing escape (%XX for '%', '|',
    newline and carriage return)."""
    if "%" not in s:
        return s
    out = []
    i = 0
    while i < len(s):
        if s[i] == "%" and i + 2 < len(s):
            try:
                out.append(chr(int(s[i + 1:i + 3], 16)))
                i += 3
                continue
            except ValueError:
                pass
        out.append(s[i])
        i += 1
    return "".join(out)


def self_times(spans):
    """Per span name: (count, total ns, self ns, minor words). `spans` is a
    list of (name, parent index or -1, t0, t1, words). A span's self time
    is its duration minus the part of its interval that its children
    cover (overlapping children count once)."""
    children = {}
    for i, (_, parent, t0, t1, _) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append((t0, t1))
    out = {}
    for i, (name, _, t0, t1, words) in enumerate(spans):
        covered = 0
        end = t0
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        count, total, self_ns, w = out.get(name, (0, 0, 0, 0.0))
        out[name] = (count + 1, total + (t1 - t0), self_ns + (t1 - t0 - covered), w + words)
    return out
