"""Seeded workload generators.

A *program* is a list of plain-tuple ops that the replayer replays
against any journal client stack (served, sharded, or in-process).
Every op carries the answer a correct Journal must give, computed
here from a model of the campus, so the replayer can check outputs
without trusting the system under test.

Op shapes (``ip``/``mac``/``dns`` describe one host interface):

* ``("obs", ip, mac, dns, new)`` — sighting submitted through the
  BatchingSink (pipelined); ``new`` marks a first sighting, whose feed
  visibility is timed.
* ``("resolve", ip, mac, dns, new)`` — synchronous sighting.
* ``("gw", name, ip, mac)`` — resolve the gateway's backbone interface,
  then ``ensure_gateway`` with it as the member.
* ``("link", name, subnet)`` — ``link_gateway_subnet``.
* ``("subnet", subnet)`` — ``ensure_subnet``.
* ``("lookup", ip, mac_or_None)`` — ``interfaces_by_ip``.
* ``("negput", key)`` / ``("negchk", key, expected)`` — negative cache.
* ``("query", subnet, frozenset_of_ips)`` — ``InSubnet`` query.
* ``("path", a, b, expected_found)`` — topology path between subnets.
* ``("impact", name, frozenset_of_linked_subnets)`` — gateway impact.

The campaign mix follows the op counts a paper-campus campaign sends
through the real explorers: about 23% sightings, 31% gateway/subnet
writes, 40% point lookups and 7% negative-cache ops.  The operator mix
and its churn are assumptions (see ``READ_LOOKUP``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

BACKBONE = "10.0.0.0/24"

#: campaign op shares (by op count)
MIX_OBS = 0.23
MIX_WRITE = 0.31
MIX_LOOKUP = 0.40
#: within sightings: first sightings, ARP refreshes, adjacent duplicates
SIGHT_NEW = 0.50
SIGHT_REFRESH = 0.35
SIGHT_DUPLICATE = 0.15
#: within writes: ensure_gateway, link_gateway_subnet, ensure_subnet
WRITE_GATEWAY = 0.30
WRITE_LINK = 0.36
#: operator read mix: lookup, InSubnet query, path, impact.  Unlike
#: the campaign mix, this one is assumed, not measured: nothing in the
#: repository records how often operators ask each kind of question.
#: So the end-to-end metrics over it are per-kind latencies only, and
#: the mix-weighted read rate and p90 are per-layer diagnostics.
READ_LOOKUP = 0.40
READ_QUERY = 0.30
READ_PATH = 0.15

Host = Tuple[str, str, str]


def _mac(b: int, c: int, d: int) -> str:
    return f"08:00:2b:{b:02x}:{c:02x}:{d:02x}"


class _UnionFind:
    def __init__(self) -> None:
        self.parent: Dict[str, str] = {}

    def find(self, node: str) -> str:
        parent = self.parent.setdefault(node, node)
        while parent != node:
            grand = self.parent.setdefault(parent, parent)
            self.parent[node] = grand
            node, parent = parent, grand
        return node

    def union(self, a: str, b: str) -> None:
        self.parent[self.find(a)] = self.find(b)


@dataclass
class Campus:
    """A seeded campus: leaf /24s hanging off a backbone through
    gateways, each gateway serving a few leaf subnets."""

    subnets: List[str]
    hosts: Dict[str, List[Host]]
    gateways: Dict[str, Tuple[Host, List[str]]]

    @classmethod
    def generate(
        cls, rng: random.Random, *, subnets: int, hosts: int, per_gateway: int = 3
    ) -> "Campus":
        cells = rng.sample(
            [(b, c) for b in range(1, 64) for c in range(256)], subnets
        )
        leaves = [f"10.{b}.{c}.0/24" for b, c in cells]
        table: Dict[str, List[Host]] = {}
        # Seeds shuffle one fixed spread of subnet sizes (0.4x to 1.6x
        # the mean), so every seed builds a campus of the same size.
        mean = hosts / subnets
        sizes = [max(4, min(250, round(mean * (0.4 + 1.2 * i / max(1, subnets - 1)))))
                 for i in range(subnets)]
        rng.shuffle(sizes)
        for (b, c), key, size in zip(cells, leaves, sizes):
            octets = sorted(rng.sample(range(1, 255), size))
            table[key] = [
                (f"10.{b}.{c}.{d}", _mac(b, c, d), f"h{d}-{b}-{c}.cs.example.edu")
                for d in octets
            ]
        gateways: Dict[str, Tuple[Host, List[str]]] = {}
        for index in range(0, subnets, per_gateway):
            number = index // per_gateway
            octet = number + 1
            member = (f"10.0.0.{octet}", _mac(0, 0, octet), f"gw{number:03d}.cs.example.edu")
            gateways[f"gw{number:03d}"] = (member, leaves[index:index + per_gateway])
        return cls(leaves, table, gateways)


@dataclass
class Model:
    """What a correct Journal holds at each point of a program."""

    campus: Campus
    rng: random.Random
    known: Dict[str, str] = field(default_factory=dict)
    known_list: List[Host] = field(default_factory=list)
    members: Dict[str, Set[str]] = field(default_factory=dict)
    gateways: Dict[str, Set[str]] = field(default_factory=dict)
    negatives: List[str] = field(default_factory=list)
    edges: Set[Tuple[str, str]] = field(default_factory=set)
    components: _UnionFind = field(default_factory=_UnionFind)
    last_sighting: Optional[Host] = None
    #: per-subnet hosts not yet sighted, in discovery order
    undiscovered: Dict[str, List[Host]] = field(default_factory=dict)
    open_subnets: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        order = list(self.campus.subnets)
        self.rng.shuffle(order)
        self.undiscovered = {key: list(self.campus.hosts[key]) for key in order}
        self.open_subnets = order

    # -- model updates ---------------------------------------------------

    def learn(self, host: Host, subnet: str) -> None:
        if host[0] not in self.known:
            self.known[host[0]] = host[1]
            self.known_list.append(host)
            self.members.setdefault(subnet, set()).add(host[0])

    def next_new_host(self) -> Optional[Tuple[Host, str]]:
        """The campaign discovers subnets a few at a time."""
        while self.open_subnets:
            window = self.open_subnets[:4]
            subnet = self.rng.choice(window)
            queue = self.undiscovered[subnet]
            if queue:
                return queue.pop(0), subnet
            self.open_subnets.remove(subnet)
        return None

    def link(self, name: str, subnet: str) -> None:
        self.gateways[name].add(subnet)
        self.edges.add((name, subnet))
        self.components.union(name, subnet)

    # -- op constructors --------------------------------------------------

    def sighting(self, kind: str) -> tuple:
        """``kind`` is "new", "refresh" or "duplicate"; a kind the model
        cannot serve yet falls back to the next one that it can."""
        if kind == "duplicate" and self.last_sighting is not None:
            host = self.last_sighting
            return ("obs", host[0], host[1], host[2], False)
        if kind == "new":
            found = self.next_new_host()
            if found is not None:
                host, subnet = found
                self.learn(host, subnet)
                self.last_sighting = host
                return ("obs", host[0], host[1], host[2], True)
        if not self.known_list:
            return self.sighting("new")
        host = self.rng.choice(self.known_list)
        self.last_sighting = host
        return ("obs", host[0], host[1], host[2], False)

    def gateway(self, name: str) -> tuple:
        member, _leaves = self.campus.gateways[name]
        self.learn(member, BACKBONE)
        self.gateways.setdefault(name, set())
        return ("gw", name, member[0], member[1])

    def write(self, kind: str) -> tuple:
        """``kind`` is "gw", "link" or "subnet"."""
        if kind == "gw" or not self.gateways:
            unborn = [name for name in sorted(self.campus.gateways) if name not in self.gateways]
            if unborn and (self.rng.random() < 0.6 or not self.gateways):
                return self.gateway(unborn[0])
            return self.gateway(self.rng.choice(sorted(self.gateways)))
        if kind == "link":
            name = self.rng.choice(sorted(self.gateways))
            subnet = self.rng.choice([BACKBONE] + self.campus.gateways[name][1])
            self.link(name, subnet)
            return ("link", name, subnet)
        subnet = self.rng.choice([BACKBONE] + sorted(self.members))
        return ("subnet", subnet)

    def lookup(self) -> tuple:
        if self.known_list and self.rng.random() < 0.9:
            host = self.rng.choice(self.known_list)
            return ("lookup", host[0], host[1])
        ip = self.unknown_ip()
        return ("lookup", ip, None)

    def unknown_ip(self) -> str:
        while True:
            ip = f"10.{self.rng.randrange(64, 128)}.{self.rng.randrange(256)}.{self.rng.randrange(1, 255)}"
            if ip not in self.known:
                return ip

    def negative(self) -> tuple:
        if self.rng.random() < 0.5 or not self.negatives:
            key = self.unknown_ip()
            self.negatives.append(key)
            return ("negput", key)
        if self.rng.random() < 0.7:
            return ("negchk", self.rng.choice(self.negatives), True)
        return ("negchk", "absent-" + self.unknown_ip(), False)

    def read(self, kind: str) -> tuple:
        """``kind`` is "lookup", "query", "path" or "impact".  Paths join
        two linked subnets of one connected component."""
        if kind == "lookup":
            host = self.rng.choice(self.known_list)
            return ("lookup", host[0], host[1])
        if kind == "query":
            subnet = self.rng.choice(sorted(self.members))
            return ("query", subnet, frozenset(self.members[subnet]))
        if kind == "path":
            groups: Dict[str, List[str]] = {}
            for subnet in sorted({subnet for _name, subnet in self.edges}):
                groups.setdefault(self.components.find(subnet), []).append(subnet)
            choices = [group for _root, group in sorted(groups.items()) if len(group) > 1]
            if choices:
                weights = [len(group) for group in choices]
                group = self.rng.choices(choices, weights)[0]
                a, b = self.rng.sample(group, 2)
                return ("path", a, b, True)
        name = self.rng.choice(sorted(self.gateways))
        return ("impact", name, frozenset(self.gateways[name]))

    def churn(self, kind: str) -> tuple:
        """One operator-time change (``kind`` "new", "refresh" or
        "link"): an ARP sighting of a new host, an ARP refresh of a
        known one, or a gateway gaining a link."""
        if kind == "new":
            found = self.next_new_host()
            if found is not None:
                host, subnet = found
                self.learn(host, subnet)
                return ("resolve", host[0], host[1], host[2], True)
        if kind != "link" or not self.gateways:
            host = self.rng.choice(self.known_list)
            return ("resolve", host[0], host[1], host[2], False)
        name = self.rng.choice(sorted(self.gateways))
        subnet = self.rng.choice(self.campus.subnets)
        self.link(name, subnet)
        return ("link", name, subnet)


def deck(rng: random.Random, count: int, shares: Dict[str, float]) -> List[str]:
    """*count* kinds in the exact proportions of *shares* (largest
    remainder), shuffled: seeds vary the order, never the mix."""
    exact = {kind: share * count for kind, share in shares.items()}
    cards = {kind: int(value) for kind, value in exact.items()}
    short = count - sum(cards.values())
    for kind in sorted(exact, key=lambda k: cards[k] - exact[k])[:short]:
        cards[kind] += 1
    dealt = [kind for kind in shares for _ in range(cards[kind])]
    rng.shuffle(dealt)
    return dealt


def campaign(model: Model, ops: int) -> List[tuple]:
    """A discovery campaign's op stream at the measured mix."""
    rng = model.rng
    kinds = deck(rng, ops, {"obs": MIX_OBS, "write": MIX_WRITE, "lookup": MIX_LOOKUP,
                            "negative": 1.0 - MIX_OBS - MIX_WRITE - MIX_LOOKUP})
    sightings = iter(deck(rng, kinds.count("obs"), {
        "new": SIGHT_NEW, "refresh": SIGHT_REFRESH, "duplicate": SIGHT_DUPLICATE}))
    writes = iter(deck(rng, kinds.count("write"), {
        "gw": WRITE_GATEWAY, "link": WRITE_LINK, "subnet": 1.0 - WRITE_GATEWAY - WRITE_LINK}))
    program: List[tuple] = []
    for kind in kinds:
        if kind == "obs":
            program.append(model.sighting(next(sightings)))
        elif kind == "write":
            program.append(model.write(next(writes)))
        elif kind == "lookup":
            program.append(model.lookup())
        else:
            program.append(model.negative())
    return program


def preload(model: Model, hosts: int) -> List[tuple]:
    """Bulk-load a campus picture: every gateway with its links and
    subnets, then up to *hosts* first sightings (pipelined)."""
    program: List[tuple] = []
    for name in sorted(model.campus.gateways):
        program.append(model.gateway(name))
        model.link(name, BACKBONE)
        program.append(("link", name, BACKBONE))
        for subnet in model.campus.gateways[name][1]:
            model.link(name, subnet)
            program.append(("link", name, subnet))
            program.append(("subnet", subnet))
    for _ in range(hosts):
        found = model.next_new_host()
        if found is None:
            break
        host, subnet = found
        model.learn(host, subnet)
        program.append(("obs", host[0], host[1], host[2], True))
    return program


def operator(model: Model, reads: int, churn_every: int) -> List[tuple]:
    """A closed loop of operator reads with one churn write after
    every *churn_every* reads."""
    rng = model.rng
    kinds = deck(rng, reads, {"lookup": READ_LOOKUP, "query": READ_QUERY, "path": READ_PATH,
                              "impact": 1.0 - READ_LOOKUP - READ_QUERY - READ_PATH})
    churns = iter(deck(rng, reads // churn_every, {"new": 0.5, "refresh": 0.25, "link": 0.25}))
    program: List[tuple] = []
    for index, kind in enumerate(kinds):
        program.append(model.read(kind))
        if (index + 1) % churn_every == 0:
            program.append(model.churn(next(churns)))
    return program


def sighting_shares(program: List[tuple]) -> Dict[str, float]:
    """Shares of first, refresh and adjacent-duplicate sightings."""
    new = refresh = duplicate = 0
    previous: Optional[tuple] = None
    for op in program:
        if op[0] != "obs":
            continue
        if previous is not None and op[1:4] == previous[1:4]:
            duplicate += 1
        elif op[4]:
            new += 1
        else:
            refresh += 1
        previous = op
    total = max(1, new + refresh + duplicate)
    return {"new": new / total, "refresh": refresh / total, "duplicate": duplicate / total}


def kinds(program: List[tuple]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for op in program:
        counts[op[0]] = counts.get(op[0], 0) + 1
    return counts


def linked_pairs(program: List[tuple]) -> FrozenSet[Tuple[str, str]]:
    return frozenset((op[1], op[2]) for op in program if op[0] == "link")
