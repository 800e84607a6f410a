"""Sim-side driver of the repository benchmark: three closed-loop workloads.

Every virtual session runs as a process on the simulation kernel and waits
for each reply before it sends its next operation (closed loop, the FIFO
session contract of ZooKeeper clients).  Everything here runs on the
simulated clock; all randomness comes from ``random.Random`` streams seeded
from the run's seed, so one seed replays one round bit-for-bit.  Host-clock
measurement lives in :mod:`hostclock` and is applied by the caller around
the phase methods of :class:`Round`.

A round goes through the phases ``setup`` (deploy, register sessions,
preload), ``warm_up`` (closed loop running, not recorded), ``measure``
(closed loop running, recorded), ``drain`` (no new operations, in-flight
work lands) and ``audit`` (the correctness oracles).  The program is driven
only through ``FaaSKeeperService``'s public client API.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cloud import Cloud
from repro.faaskeeper import FaaSKeeperConfig, FaaSKeeperService, watches
from repro.faaskeeper.exceptions import FaaSKeeperError
from repro.faaskeeper.model import CreateOp
from repro.sim.kernel import AllOf, AnyOf

__all__ = ["WORKLOADS", "Round", "Zipfian", "percentile"]

VALUE_BYTES = 1024


def percentile(sorted_values: List[float], q: float) -> float:
    """Linear-interpolated percentile of an already sorted list."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


class Zipfian:
    """YCSB's zipfian rank generator (Gray et al.), constant ``theta``."""

    def __init__(self, n: int, rng: random.Random, theta: float = 0.99) -> None:
        self.n = n
        self.rng = rng
        self.zetan = sum(1.0 / (i ** theta) for i in range(1, n + 1))
        zeta2 = 1.0 + 0.5 ** theta
        self.alpha = 1.0 / (1.0 - theta)
        self.eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (1.0 - zeta2 / self.zetan)
        self._half_pow = 0.5 ** theta

    def next(self) -> int:
        u = self.rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + self._half_pow:
            return 1
        return min(self.n - 1,
                   int(self.n * (self.eta * u - self.eta + 1.0) ** self.alpha))


def _payload(session: str, seq: int, size: int = VALUE_BYTES) -> bytes:
    """A unique, fixed-size write payload (the Z1 audit matches on it)."""
    head = b"%s:%d:" % (session.encode(), seq)
    return head + b"." * (size - len(head))


# --------------------------------------------------------------------------
# Operation log
# --------------------------------------------------------------------------

@dataclass
class Ack:
    """One acknowledged write, kept for the audits."""

    op: str           # "set_data" | "create" | "delete"
    path: str
    submitted: float
    payload: bytes = b""
    txid: int = 0
    version: int = -1


@dataclass
class Watch:
    """One armed watch and what the audits need to know about it."""

    session: str
    path: str
    kind: str                     # "data" | "children"
    armed_at: float               # read completion instant
    seen_version: int = -1        # data watches: version the read returned
    fires: int = 0
    fired_at: float = -1.0
    fired_txid: int = 0


@dataclass
class OpLog:
    """Everything a round's client operations produced."""

    window: Tuple[float, float] = (0.0, 0.0)
    reads_ms: List[float] = field(default_factory=list)
    writes_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    completed: int = 0
    failures: Dict[str, int] = field(default_factory=dict)
    acks: List[Ack] = field(default_factory=list)
    watches: List[Watch] = field(default_factory=list)
    silenced_at: Dict[str, float] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    def in_window(self, t: float) -> bool:
        return self.window[0] <= t < self.window[1]


READ_OPS = ("get_data", "exists", "get_children")
WRITE_OPS = ("create", "set_data", "delete")


class Session:
    """A closed-loop virtual session: one op in flight at a time."""

    def __init__(self, rnd: "Round", client) -> None:
        self.rnd = rnd
        self.client = client
        self.sid = client.session_id
        self.seq = 0
        #: path -> version of this session's last acked set_data (Z2/Z3).
        self.own_version: Dict[str, int] = {}

    def _submit(self, op: str, path: str, args: tuple,
                watch: Optional[Callable]):
        client = self.client
        if op == "get_data":
            return client.get_data_async(path, watch=watch)
        if op == "exists":
            return client.exists_async(path, watch=watch)
        if op == "get_children":
            return client.get_children_async(path, watch=watch)
        if op == "set_data":
            return client.set_data_async(path, args[0])
        if op == "create":
            return client.create_async(path, args[0],
                                       ephemeral=bool(args[1:] and args[1]))
        if op == "delete":
            return client.delete_async(path)
        if op == "close":
            return client.close_async()
        raise ValueError(f"unknown op {op!r}")

    def call(self, op: str, path: str, *args, watch: Optional[Callable] = None):
        """Generator: run one client op; returns its result or ``None`` when
        the op failed (the failure is counted, never raised)."""
        rnd = self.rnd
        env = rnd.env
        log = rnd.log
        self.seq += 1
        t0 = env.now
        recorded = rnd.recording and log.in_window(t0)
        if recorded:
            log.attempted += 1
        tracer = rnd.tracer
        if tracer is not None:
            tracer.begin_root(self.sid, self.seq, op)
        try:
            try:
                future = self._submit(op, path, args, watch)
            finally:
                if tracer is not None:
                    tracer.end_root_call()
            result = yield future.event
        except FaaSKeeperError as exc:
            if tracer is not None:
                tracer.finish_root(self.sid, self.seq, t0, env.now, ok=False)
            if recorded:
                log.failed += 1
                code = str(exc).rsplit(": ", 1)[-1]
                key = f"{type(exc).__name__}:{code}"
                log.failures[key] = log.failures.get(key, 0) + 1
            return None
        now = env.now
        if tracer is not None:
            tracer.finish_root(self.sid, self.seq, t0, now, ok=True)
        if recorded:
            log.completed += 1
            if op in READ_OPS:
                log.reads_ms.append(now - t0)
            elif op in WRITE_OPS:
                log.writes_ms.append(now - t0)
        if op == "set_data":
            self.own_version[path] = result.version
            log.acks.append(Ack(op, path, t0, args[0], result.txid,
                                result.version))
        elif op in ("create", "delete"):
            log.acks.append(Ack(op, path, t0))
        elif op in ("get_data", "exists") and result is not None:
            stat = result[1] if op == "get_data" else result
            mine = self.own_version.get(path)
            if mine is not None and stat.version < mine:
                log.violations.append(
                    f"Z2/Z3: {self.sid} read {path} at version {stat.version}"
                    f" after its own acked write of version {mine}")
        return result if result is not None else True


# --------------------------------------------------------------------------
# Rounds
# --------------------------------------------------------------------------

class Round:
    """One seeded round of one workload on a fresh deployment."""

    name = ""
    #: Simulated milliseconds of the unrecorded and recorded closed loop.
    warm_up_ms = 0.0
    measure_ms = 0.0
    #: How long the drain waits for in-flight ops before calling them stuck.
    DRAIN_MAX_MS = 120_000.0

    def __init__(self, seed: int, scale: float = 1.0,
                 service_hook: Optional[Callable[[Any], None]] = None,
                 tracer=None) -> None:
        self.seed = seed
        self.scale = scale
        self.service_hook = service_hook
        self.tracer = tracer
        self.log = OpLog()
        self.recording = False
        self.stopping = False
        self.cloud: Optional[Cloud] = None
        self.service: Optional[FaaSKeeperService] = None
        self.procs: List[Any] = []
        self.meter_window = (0.0, 0.0)
        self.stale_arms = 0

    # -- helpers -------------------------------------------------------------
    def rng(self, stream: str) -> random.Random:
        return random.Random(f"perfbench:{self.name}:{self.seed}:{stream}")

    def scaled(self, n: int, floor: int = 1) -> int:
        return max(floor, int(round(n * self.scale)))

    @property
    def env(self):
        return self.cloud.env

    def config(self) -> FaaSKeeperConfig:  # pragma: no cover - abstract
        raise NotImplementedError

    def _deploy(self) -> None:
        # Watch instance ids come from a process-wide counter in
        # repro.faaskeeper.watches, so a deployment's ids (and, through
        # item sizes, its simulated latencies) depend on every deployment
        # made before it in the process.  Restart the counter so each round
        # starts from the state of a fresh process.
        watches._uid = itertools.count(1)
        self.cloud = Cloud.aws(seed=self.seed)
        self.service = FaaSKeeperService.deploy(self.cloud, self.config())
        if self.service_hook is not None:
            self.service_hook(self.service)

    def _run_all(self, make: Callable[[Any], Any], items: List[Any],
                 wave: int = 200, tries: int = 8) -> None:
        """Set-up helper: run ``make(item)`` for every item in waves, retrying
        items whose op was rejected (``system_busy`` under contention)."""
        todo = list(items)
        for _ in range(tries):
            failed = []
            for i in range(0, len(todo), wave):
                batch = todo[i:i + wave]
                futures = [make(item) for item in batch]
                done = [f.event for f in futures]
                self.cloud.run(until=AllOf(self.env, [
                    self.env.process(self._settle(e)) for e in done]))
                failed += [item for item, e in zip(batch, done) if not e.ok]
            if not failed:
                return
            todo = failed
        raise RuntimeError(f"set-up: {len(todo)} ops still rejected after "
                           f"{tries} tries")

    @staticmethod
    def _settle(event):
        try:
            yield event
        except FaaSKeeperError:
            pass

    def _spawn(self, gen, name: str) -> None:
        self.procs.append(self.env.process(gen, name=name))

    # -- phases ----------------------------------------------------------------
    def setup(self) -> None:
        """Deploy, register sessions, preload, start the session loops."""
        raise NotImplementedError

    def warm_up(self) -> None:
        self.cloud.run(until=self.env.now + self.warm_up_ms)

    def measure(self) -> None:
        start = self.env.now
        end = start + self.measure_ms
        self.log.window = (start, end)
        self.recording = True
        cost0 = self.cloud.meter.total
        if self.tracer is not None:
            self.tracer.window_open(self)
        self.cloud.run(until=end)
        if self.tracer is not None:
            self.tracer.window_close(self)
        self.meter_window = (cost0, self.cloud.meter.total)

    def drain(self) -> None:
        """Stop issuing; let in-flight ops, watch deliveries and evictions
        land.  The loops check ``stopping`` before each new op."""
        self.stopping = True
        pending = [p for p in self.procs if not p.triggered]
        if pending:
            self.cloud.run(until=AnyOf(self.env, [
                AllOf(self.env, pending), self.env.timeout(self.DRAIN_MAX_MS)]))
        stuck = [p.name for p in self.procs if not p.triggered]
        if stuck:
            self.log.violations.append(
                f"liveness: {len(stuck)} session loops still blocked "
                f"{self.DRAIN_MAX_MS / 1000:.0f}s after the last op was issued "
                f"(e.g. {stuck[:3]})")
        # Trailing replication and watch fan-out of the last writes.
        self.cloud.run(until=self.env.now + 30_000.0)

    def audit(self) -> List[str]:
        """Correctness oracles; returns the violations (empty = pass)."""
        violations = list(self.log.violations)
        violations += self._audit_writes()
        violations += self._audit_watches()
        return violations

    # -- shared oracles ----------------------------------------------------------
    def _final_images(self, paths: List[str]) -> Dict[str, Any]:
        """Final node state read through a fresh session's public API."""
        auditor = self.service.connect()
        reads = {p: auditor.get_data_async(p) for p in paths}
        out: Dict[str, Any] = {}
        for p, fut in reads.items():
            try:
                out[p] = fut.wait()
            except FaaSKeeperError:
                out[p] = None
        return out

    def _audit_writes(self) -> List[str]:
        """Exactly-once (version == acked set_data count since the node's
        creation) and Z1 (data == payload of the highest-txid acked write)."""
        sets: Dict[str, List[Ack]] = {}
        for ack in self.log.acks:
            if ack.op == "set_data":
                sets.setdefault(ack.path, []).append(ack)
        paths = sorted(self.initial_data)
        final = self._final_images(paths)
        out = []
        for path in paths:
            acked = sets.get(path, [])
            got = final[path]
            if got is None:
                out.append(f"audit: {path} is missing")
                continue
            data, stat = got
            if stat.version != len(acked):
                out.append(f"exactly-once: {path} version {stat.version} != "
                           f"{len(acked)} acked writes")
            want = (max(acked, key=lambda a: a.txid).payload if acked
                    else self.initial_data[path])
            if data != want:
                out.append(f"Z1: {path} data {data[:24]!r} is not the payload "
                           f"of its highest-txid acked write {want[:24]!r}")
        return out

    def _audit_watches(self) -> List[str]:
        """Z4: each watch fires at most once; a watch armed before a write
        to its path (the write submitted after the arming read returned)
        fires.  Watches that stayed silent although the arming read returned
        a version older than the path's final one, with every newer write
        submitted before the arming read returned, are not violations of
        that rule; they are counted in ``stale_arms`` and reported."""
        later: Dict[Tuple[str, str], List[float]] = {}
        last_version: Dict[str, int] = {}
        for ack in self.log.acks:
            if ack.op == "set_data":
                later.setdefault(("data", ack.path), []).append(ack.submitted)
                last_version[ack.path] = max(last_version.get(ack.path, 0),
                                             ack.version)
            else:
                parent = ack.path.rsplit("/", 1)[0] or "/"
                later.setdefault(("children", parent), []).append(ack.submitted)
        out = []
        self.stale_arms = 0
        for w in self.log.watches:
            if w.fires > 1:
                out.append(f"Z4: watch {w.kind}:{w.path} of {w.session} "
                           f"fired {w.fires} times")
            if w.fires:
                continue
            if any(t > w.armed_at for t in later.get((w.kind, w.path), ())):
                out.append(f"Z4: watch {w.kind}:{w.path} of {w.session} armed "
                           f"at {w.armed_at:.1f} never fired after a later write")
            elif w.kind == "data" and last_version.get(w.path, 0) > w.seen_version:
                self.stale_arms += 1
        return out

    # -- watcher loop ---------------------------------------------------------------
    def watcher(self, sess: Session, targets: List[Tuple[str, str]]):
        """Keep one data or children watch armed on each target; re-arm a
        watch as soon as it fires (each arm is a read)."""
        env = self.env
        wake = [env.event()]
        fired: List[int] = []

        def arm(i: int):
            kind, path = targets[i]
            watch = Watch(sess.sid, path, kind, armed_at=0.0)

            def callback(event, _w=watch, _i=i):
                _w.fires += 1
                if _w.fires == 1:
                    _w.fired_at = env.now
                    _w.fired_txid = event.txid
                    fired.append(_i)
                    if not wake[0].triggered:
                        wake[0].succeed(None)

            op = "get_data" if kind == "data" else "get_children"
            result = yield from sess.call(op, path, watch=callback)
            if result is None:
                # Failed arm: the registration is in doubt, so this watch is
                # not audited; arm the target again.
                if i not in fired:
                    fired.append(i)
                return
            watch.armed_at = env.now
            if kind == "data":
                watch.seen_version = result[1].version
            self.log.watches.append(watch)

        for i in range(len(targets)):
            yield from arm(i)
        while not self.stopping:
            if not fired:
                wake[0] = env.event()
                yield AnyOf(env, [wake[0], env.timeout(1_000.0)])
                continue
            i = fired.pop(0)
            yield from arm(i)

    def watch_latencies(self) -> List[float]:
        """Triggering-write submission -> callback, for data watches whose
        trigger is an acked write submitted inside the measured window."""
        submitted = {a.txid: a.submitted for a in self.log.acks
                     if a.op == "set_data"}
        out = []
        for w in self.log.watches:
            if w.fires and w.kind == "data":
                t = submitted.get(w.fired_txid)
                if t is not None and self.log.in_window(t):
                    out.append(w.fired_at - t)
        return out

    def eviction_lags(self) -> List[float]:
        return []


# --------------------------------------------------------------------------
# read-mostly
# --------------------------------------------------------------------------

class ReadMostly(Round):
    name = "read-mostly"
    warm_up_ms = 10_000.0
    measure_ms = 240_000.0
    SESSIONS = 16
    NODES = 1000
    CACHE_ENTRIES = 32
    READ_FRACTION = 0.95

    def config(self) -> FaaSKeeperConfig:
        return FaaSKeeperConfig(client_cache_entries=self.CACHE_ENTRIES)

    def setup(self) -> None:
        self._deploy()
        n = self.scaled(self.NODES, 16)
        self.measure_ms = self.measure_ms * self.scale
        perm = list(range(n))
        self.rng("keys").shuffle(perm)
        self.paths = [f"/rm/k{perm[i]:04d}" for i in range(n)]
        loader = self.service.connect()
        loader.create("/rm", b"")
        self.initial_data = {p: _payload("preload", i)
                             for i, p in enumerate(self.paths)}
        ordered = sorted(self.paths)
        self._run_all(
            lambda chunk: loader.multi_async(
                [CreateOp(p, self.initial_data[p]) for p in chunk]),
            [ordered[i:i + 50] for i in range(0, n, 50)])
        self.sessions = [Session(self, c)
                         for c in self.service.connect_many(self.SESSIONS)]
        for i, sess in enumerate(self.sessions):
            self._spawn(self.ycsb(sess, self.rng(f"ops:{i}")), f"rm:{i}")

    def ycsb(self, sess: Session, rng: random.Random):
        zipf = Zipfian(len(self.paths), rng)
        while not self.stopping:
            path = self.paths[zipf.next()]
            if rng.random() < self.READ_FRACTION:
                yield from sess.call("get_data", path)
            else:
                yield from sess.call("set_data", path, _payload(sess.sid, sess.seq + 1))


# --------------------------------------------------------------------------
# write-watch
# --------------------------------------------------------------------------

class WriteWatch(Round):
    name = "write-watch"
    warm_up_ms = 5_000.0
    measure_ms = 240_000.0
    WRITERS = 16
    WATCHERS = 32
    HOT = 64
    DATA_WATCHES = 4
    CHILD_WATCHES = 2

    def config(self) -> FaaSKeeperConfig:
        return FaaSKeeperConfig(leader_shards=4, distributor_enabled=True,
                                storage_faults=True, storage_fault_rate=0.01)

    def setup(self) -> None:
        self._deploy()
        self.measure_ms = self.measure_ms * self.scale
        self.hot = [f"/h{i:02d}" for i in range(self.scaled(self.HOT, 8))]
        #: Children whose delete failed: present or not, both are legal.
        self.doubtful: set = set()
        loader = self.service.connect()
        self.initial_data = {p: _payload("preload", i)
                             for i, p in enumerate(self.hot)}
        self._run_all(lambda p: loader.create_async(p, self.initial_data[p]),
                      self.hot)
        writers = self.service.connect_many(self.scaled(self.WRITERS, 2))
        watchers = self.service.connect_many(self.scaled(self.WATCHERS, 2))
        for i, c in enumerate(writers):
            self._spawn(self.writer(Session(self, c), self.rng(f"writer:{i}")),
                        f"ww:writer{i}")
        pick = self.rng("watch-targets")
        for i, c in enumerate(watchers):
            targets = [("data", p) for p in pick.sample(self.hot, self.DATA_WATCHES)]
            targets += [("children", p)
                        for p in pick.sample(self.hot, self.CHILD_WATCHES)]
            self._spawn(self.watcher(Session(self, c), targets), f"ww:watcher{i}")

    def writer(self, sess: Session, rng: random.Random):
        children: List[str] = []
        made = 0
        while not self.stopping:
            path = rng.choice(self.hot)
            draw = rng.random()
            if draw < 0.10:
                yield from sess.call("get_data", path)
            elif draw < 0.20:
                made += 1
                child = f"{path}/{sess.sid}-{made}"
                if (yield from sess.call("create", child, b"c")) is not None:
                    children.append(child)
            elif draw < 0.30 and children:
                child = children.pop(rng.randrange(len(children)))
                if (yield from sess.call("delete", child)) is None:
                    children.append(child)  # in doubt: never delete it again
                    self.doubtful.add(child)
            else:
                yield from sess.call("set_data", path, _payload(sess.sid, sess.seq + 1))

    def audit(self) -> List[str]:
        out = super().audit()
        # Children: acked creates minus acked deletes, per hot znode.
        want: Dict[str, set] = {p: set() for p in self.hot}
        for ack in sorted(self.log.acks, key=lambda a: a.submitted):
            if ack.op in ("create", "delete"):
                parent, name = ack.path.rsplit("/", 1)
                if ack.op == "create":
                    want[parent].add(name)
                else:
                    want[parent].discard(name)
        auditor = self.service.connect()
        for p in self.hot:
            try:
                got = set(auditor.get_children(p))
            except FaaSKeeperError as exc:
                out.append(f"audit: get_children {p} failed: {exc}")
                continue
            doubt = {c.rsplit("/", 1)[1] for c in self.doubtful
                     if c.rsplit("/", 1)[0] == p}
            if got - doubt != want[p] - doubt:
                out.append(f"children: {p} has {sorted(got)[:4]}.. "
                           f"expected {sorted(want[p])[:4]}..")
        return out


# --------------------------------------------------------------------------
# session-churn
# --------------------------------------------------------------------------

class SessionChurn(Round):
    name = "session-churn"
    warm_up_ms = 2_000.0
    SESSIONS = 20_000
    SILENT = 1000
    GRACEFUL = 1000
    WATCHERS = 16
    WRITERS = 8
    HOT = 8
    EPH_GROUPS = 50
    THINK_MS = 500.0
    #: Heartbeat periods over which silences and closes are spread.
    CHURN_PERIODS = 2

    def config(self) -> FaaSKeeperConfig:
        return FaaSKeeperConfig(session_plane_shards=8, user_store="mem")

    def setup(self) -> None:
        self._deploy()
        period = self.service.config.heartbeat_period_ms
        self.period = period
        self.measure_ms = 3 * period
        n_silent = self.scaled(self.SILENT, 10)
        n_graceful = self.scaled(self.GRACEFUL, 10)
        n_watchers = self.scaled(self.WATCHERS, 2)
        n_writers = self.scaled(self.WRITERS, 2)
        loader = self.service.connect()
        self.hot = [f"/hot/p{i}" for i in range(self.HOT)]
        self.initial_data = {p: _payload("preload", i)
                             for i, p in enumerate(self.hot)}
        loader.create("/hot", b"")
        loader.create("/eph", b"")
        self._run_all(lambda p: loader.create_async(p, self.initial_data[p]),
                      self.hot)
        clients = self.service.connect_many(self.scaled(self.SESSIONS, 100))
        self.registered = len(clients)
        order = list(range(len(clients)))
        self.rng("cohorts").shuffle(order)
        cursor = 0

        def take(k: int) -> List[Any]:
            nonlocal cursor
            out = [clients[i] for i in order[cursor:cursor + k]]
            cursor += k
            return out

        self.silent = take(n_silent)
        self.graceful = take(n_graceful)
        watchers = take(n_watchers)
        writers = take(n_writers)
        # Every silent session owns one ephemeral node: its eviction must
        # take the node away.
        owners = self.silent
        groups = [f"/eph/g{i:02d}" for i in range(self.EPH_GROUPS)]
        self._run_all(lambda p: loader.create_async(p, b""), groups)
        self.ephemerals = {c.session_id: f"{groups[i % len(groups)]}/{c.session_id}"
                           for i, c in enumerate(owners)}
        self._run_all(lambda c: c.create_async(self.ephemerals[c.session_id],
                                               b"e", ephemeral=True), owners)
        stagger = self.rng("stagger")
        self._churn = [(c, stagger.random() * self.CHURN_PERIODS * period)
                       for c in self.silent]
        self._closes = [(c, stagger.random() * self.CHURN_PERIODS * period)
                        for c in self.graceful]
        # Round-robin, so every hot path carries the same watch fan-out.
        for i, c in enumerate(watchers):
            self._spawn(self.watcher(Session(self, c),
                                     [("data", self.hot[i % len(self.hot)])]),
                        f"sc:watcher{i}")
        for i, c in enumerate(writers):
            self._spawn(self.writer(Session(self, c), self.rng(f"writer:{i}")),
                        f"sc:writer{i}")

    def measure(self) -> None:
        env = self.env
        t0 = env.now
        for c, after in self._churn:
            env.process(self._silence(c, t0 + after), name="sc:silence")
        for c, after in self._closes:
            self._spawn(self._close(Session(self, c), t0 + after), "sc:close")
        super().measure()

    def _silence(self, client, at: float):
        yield self.env.timeout(at - self.env.now)
        self.log.silenced_at[client.session_id] = self.env.now
        client.alive = False

    def _close(self, sess: Session, at: float):
        yield self.env.timeout(at - self.env.now)
        yield from sess.call("close", "")

    def writer(self, sess: Session, rng: random.Random):
        while not self.stopping:
            path = rng.choice(self.hot)
            yield from sess.call("set_data", path, _payload(sess.sid, sess.seq + 1))
            yield from sess.call("get_data", path)
            yield self.env.timeout(self.THINK_MS * (0.5 + rng.random()))

    def drain(self) -> None:
        super().drain()
        # Evictions land at the first sweep after a silence; allow a bounded
        # number of further periods for the slowest shard.
        deadline = self.env.now + 3 * self.period
        while self.env.now < deadline and any(
                not c.closed for c in self.silent):
            self.cloud.run(until=self.env.now + self.period / 4)

    def eviction_lags(self) -> List[float]:
        out = []
        for c in self.silent:
            silenced = self.log.silenced_at.get(c.session_id)
            if silenced is not None and c.closed_at is not None:
                out.append(c.closed_at - silenced)
        return out

    def audit(self) -> List[str]:
        out = super().audit()
        not_evicted = [c.session_id for c in self.silent if not c.evicted]
        if not_evicted:
            out.append(f"eviction: {len(not_evicted)} silenced sessions were "
                       f"never evicted (e.g. {not_evicted[:3]})")
        not_closed = [c.session_id for c in self.graceful if not c.closed]
        if not_closed:
            out.append(f"close: {len(not_closed)} graceful closes did not land")
        auditor = self.service.connect()
        futures = {p: auditor.exists_async(p) for p in self.ephemerals.values()}
        for p, fut in futures.items():
            try:
                stat = fut.wait()
            except FaaSKeeperError as exc:
                out.append(f"audit: exists {p} failed: {exc}")
                continue
            if stat is not None:
                out.append(f"ephemeral: {p} outlived its session")
                break
        # Live sessions: the registered population plus the loader and the
        # auditors (one per audit helper), minus closes and silences.
        extra = 1 + 2   # loader + _final_images auditor + this auditor
        want = self.registered + extra - len(self.graceful) - len(self.silent)
        live = self.service.active_sessions
        if live != want:
            out.append(f"sessions: {live} live at the end, expected {want}")
        return out


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (ReadMostly, WriteWatch, SessionChurn)}
