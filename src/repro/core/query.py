"""Predicate queries over the Journal.

The paper's Future Work names this directly: "support for large
internets, by caching data and supporting predicate-based queries to
limit exchanged data to the parts that are needed."  This module is
that predicate language: a small AST of field comparisons (subnet
membership, MAC vendor prefix, modification time, revision, staleness,
confidence) composable with ``And``/``Or``/``Not``, with

* a wire codec (:func:`predicate_to_dict` / :func:`predicate_from_dict`)
  so the server's ``query`` op can evaluate predicates *server-side*
  and ship only matching records;
* an index planner: each leaf may propose a candidate set from one of
  the Journal's secondary indexes (the by-IP index for subnet
  ranges, the by-MAC index for vendor prefixes, the per-kind
  by-last-modified index for ``ModifiedSince``, the revision-ordered
  change log for ``SinceRevision``) — the full predicate then filters
  the candidates, so an indexable query costs O(result), not
  O(journal);
* cache metadata: every predicate knows its canonical cache ``key``,
  whether it is :func:`cacheable` at all, and which change-feed index
  keys to :func:`watch_for` — the client-side
  :class:`~repro.core.client.QueryCache` uses these to serve repeat
  queries with zero wire round trips and evict entries the moment a
  feed delta touches their key space.

Evaluation semantics are defined by ``matches(record)`` alone: the
planner may only ever *narrow* the scanned set to a superset of the
matches (property-tested in ``tests/core/test_query.py`` against
dump-then-filter).  Results always come back sorted by
``(last_modified, record_id)`` — the same order as ``all_interfaces``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..netsim.addresses import MacAddress, OUI_VENDORS, Subnet
from .records import Quality

__all__ = [
    "Predicate",
    "And",
    "Or",
    "Not",
    "InSubnet",
    "MacPrefix",
    "ModifiedSince",
    "SinceRevision",
    "VerifiedBefore",
    "Stale",
    "Confidence",
    "FieldEquals",
    "HasField",
    "RecordIds",
    "predicate_to_dict",
    "predicate_from_dict",
    "cache_key",
    "cacheable",
    "watch_for",
    "evaluate",
    "normalize_kind",
    "KIND_TABLES",
]

#: query table name -> (journal attribute, dirty-set kind)
KIND_TABLES: Dict[str, Tuple[str, str]] = {
    "interfaces": ("interfaces", "interface"),
    "gateways": ("gateways", "gateway"),
    "subnets": ("subnets", "subnet"),
}

def normalize_kind(kind: str) -> str:
    """Canonical (plural) table name; singular spellings accepted."""
    if kind in KIND_TABLES:
        return kind
    plural = str(kind) + "s"
    if plural in KIND_TABLES:
        return plural
    raise ValueError(f"unknown query kind: {kind!r}")


#: change-feed key prefixes (see Journal._identity_keys)
KEY_IP = "ip:"
KEY_MAC = "mac:"
KEY_NAME = "name:"
KEY_SUBNET = "subnet:"


def _wire_error(message: str) -> Exception:
    from .wire import WireError

    return WireError(message)


def _live_verified(record) -> Optional[float]:
    """Last verification by anything other than a passive (DNS) source
    — the staleness clock the paper's interface display uses."""
    times = [
        attribute.last_verified_live
        for attribute in record.attributes.values()
        if attribute.last_verified_live is not None
    ]
    return max(times) if times else None


# ----------------------------------------------------------------------
# The AST
# ----------------------------------------------------------------------


class Predicate:
    """Base class: a boolean condition over one Journal record."""

    #: wire type tag, set by each subclass
    TAG = ""

    def matches(self, record) -> bool:
        raise NotImplementedError

    def to_dict(self) -> Dict[str, Any]:
        raise NotImplementedError

    def candidates(self, journal, kind: str) -> Optional[Iterable[int]]:
        """Record ids that *may* match, from a secondary index — always
        a superset of the true matches — or None when no index applies
        and the whole table must be scanned."""
        return None

    def cacheable(self) -> bool:
        """May a client cache this predicate's results and rely on the
        change feed for invalidation?  False for predicates whose truth
        can move without a feed delta (verify-only refreshes advance
        ``last_modified``/``last_verified``/quality without bumping the
        revision counter, so the feed never reports them)."""
        return True

    def watch(self, kind: str) -> "_Watch":
        """The feed-key watch that decides cache eviction."""
        return _AnyChange()

    # combinator sugar
    def __and__(self, other: "Predicate") -> "And":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Or":
        return Or(self, other)

    def __invert__(self) -> "Not":
        return Not(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_dict()})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Predicate) and self.to_dict() == other.to_dict()

    def __hash__(self) -> int:
        return hash(cache_key(self))


class And(Predicate):
    """Every child must match."""

    TAG = "and"

    def __init__(self, *children: Predicate) -> None:
        self.children: Tuple[Predicate, ...] = tuple(children)

    def matches(self, record) -> bool:
        return all(child.matches(record) for child in self.children)

    def to_dict(self) -> Dict[str, Any]:
        return {"t": self.TAG, "of": [c.to_dict() for c in self.children]}

    def candidates(self, journal, kind: str) -> Optional[Iterable[int]]:
        """The smallest plannable child's candidates: a superset of the
        conjunction (the other children filter in ``matches``)."""
        best: Optional[List[int]] = None
        for child in self.children:
            ids = child.candidates(journal, kind)
            if ids is None:
                continue
            ids = list(ids)
            if best is None or len(ids) < len(best):
                best = ids
        return best

    def cacheable(self) -> bool:
        return all(child.cacheable() for child in self.children)

    def watch(self, kind: str) -> "_Watch":
        # A single record entering or leaving the conjunction logs keys
        # matching EVERY key-watched child (its current identity keys
        # ride along on each touch), so eviction requires all children
        # to fire.  Cross-record batching can only over-trigger — safe.
        return _All([child.watch(kind) for child in self.children])


class Or(Predicate):
    """Any child may match."""

    TAG = "or"

    def __init__(self, *children: Predicate) -> None:
        self.children: Tuple[Predicate, ...] = tuple(children)

    def matches(self, record) -> bool:
        return any(child.matches(record) for child in self.children)

    def to_dict(self) -> Dict[str, Any]:
        return {"t": self.TAG, "of": [c.to_dict() for c in self.children]}

    def candidates(self, journal, kind: str) -> Optional[Iterable[int]]:
        """The union — but only when every child is plannable (one
        unplannable child forces the full scan anyway)."""
        union: Set[int] = set()
        for child in self.children:
            ids = child.candidates(journal, kind)
            if ids is None:
                return None
            union.update(ids)
        return union

    def cacheable(self) -> bool:
        return all(child.cacheable() for child in self.children)

    def watch(self, kind: str) -> "_Watch":
        return _AnyOf([child.watch(kind) for child in self.children])


class Not(Predicate):
    """The complement.  Never index-plannable (the complement of a
    range is the rest of the table) and watched as a wildcard."""

    TAG = "not"

    def __init__(self, child: Predicate) -> None:
        self.child = child

    def matches(self, record) -> bool:
        return not self.child.matches(record)

    def to_dict(self) -> Dict[str, Any]:
        return {"t": self.TAG, "of": self.child.to_dict()}

    def cacheable(self) -> bool:
        return self.child.cacheable()


class InSubnet(Predicate):
    """The record's IP address lies inside a subnet (``a.b.c.d/len``).

    Planned as a range scan over the Journal's by-IP index (the
    zero-padded key order makes lexicographic = numeric).
    """

    TAG = "in_subnet"

    def __init__(self, subnet: str) -> None:
        self.subnet = Subnet.parse(str(subnet))

    def matches(self, record) -> bool:
        ip = record.get("ip")
        if ip is None:
            return False
        from ..netsim.addresses import Ipv4Address

        try:
            return Ipv4Address.parse(ip) in self.subnet
        except ValueError:
            return False

    def to_dict(self) -> Dict[str, Any]:
        return {"t": self.TAG, "subnet": str(self.subnet)}

    def _ip_key_range(self) -> Tuple[str, str]:
        from .journal import ip_key

        # network..broadcast covers the whole subnet (a superset of the
        # assignable range), so membership semantics stay with matches().
        return ip_key(str(self.subnet.network)), ip_key(str(self.subnet.broadcast))

    def candidates(self, journal, kind: str) -> Optional[Iterable[int]]:
        if kind != "interfaces":
            return None
        low, high = self._ip_key_range()
        return [rid for _key, rid in journal.by_ip.range(low, high)]

    def watch(self, kind: str) -> "_Watch":
        if kind != "interfaces":
            return _AnyChange()
        low, high = self._ip_key_range()
        return _KeyRange(KEY_IP + low, KEY_IP + high)


class MacPrefix(Predicate):
    """The record's Ethernet address starts with *prefix* (an OUI like
    ``08:00:20`` selects one vendor).  Planned as a prefix range over
    the by-MAC index."""

    TAG = "mac_prefix"

    def __init__(self, prefix: str) -> None:
        self.prefix = str(prefix).lower().replace("-", ":")

    @classmethod
    def vendor(cls, name: str) -> "MacPrefix":
        """The prefix for a known vendor name (see ``OUI_VENDORS``).

        Matches the full name case-insensitively, or a unique leading
        word of it ("Sun" finds "Sun Microsystems").
        """
        wanted = name.lower()
        hits = {
            oui: vendor
            for oui, vendor in OUI_VENDORS.items()
            if vendor.lower() == wanted or vendor.lower().startswith(wanted)
        }
        if len(hits) == 1:
            (oui,) = hits
            return cls(str(MacAddress(oui << 24))[:8])
        if hits:
            raise ValueError(
                f"ambiguous MAC vendor {name!r}: {sorted(hits.values())}"
            )
        raise ValueError(f"unknown MAC vendor: {name!r}")

    def matches(self, record) -> bool:
        mac = record.get("mac")
        return mac is not None and str(mac).lower().startswith(self.prefix)

    def to_dict(self) -> Dict[str, Any]:
        return {"t": self.TAG, "prefix": self.prefix}

    def candidates(self, journal, kind: str) -> Optional[Iterable[int]]:
        if kind != "interfaces":
            return None
        return [
            rid
            for _key, rid in journal.by_mac.range(self.prefix, self.prefix + "\xff")
        ]

    def watch(self, kind: str) -> "_Watch":
        if kind != "interfaces":
            return _AnyChange()
        return _KeyRange(KEY_MAC + self.prefix, KEY_MAC + self.prefix + "\xff")


class ModifiedSince(Predicate):
    """``last_modified`` strictly after *when* — the replication
    predicate, planned against the per-kind by-last-modified index.

    Not cacheable: verify-only observations advance ``last_modified``
    without bumping the revision counter, so a cached result could gain
    members the change feed never reports.
    """

    TAG = "modified_since"

    def __init__(self, when: float) -> None:
        self.when = float(when)

    def matches(self, record) -> bool:
        return record.last_modified > self.when

    def to_dict(self) -> Dict[str, Any]:
        return {"t": self.TAG, "when": self.when}

    def candidates(self, journal, kind: str) -> Optional[Iterable[int]]:
        dirty_kind = KIND_TABLES[kind][1]
        index = journal._modified_index[dirty_kind]
        inf = float("inf")
        return [rid for _key, rid in index.range((self.when, inf), (inf, inf))]

    def cacheable(self) -> bool:
        return False


class SinceRevision(Predicate):
    """``record.revision`` strictly after *rev* — the replicator's
    lost-update-proof sync cursor.  Every revision is handed out once,
    so unlike timestamps there are no ties to lose; planned O(delta)
    against the revision-ordered change log when the window is still
    retained, full scan once it has been pruned."""

    TAG = "since_revision"

    def __init__(self, rev: int) -> None:
        self.rev = int(rev)

    def matches(self, record) -> bool:
        return record.revision > self.rev

    def to_dict(self) -> Dict[str, Any]:
        return {"t": self.TAG, "rev": self.rev}

    def candidates(self, journal, kind: str) -> Optional[Iterable[int]]:
        changes = journal.changes_since(self.rev)
        if not changes.complete:
            return None
        attr = KIND_TABLES[kind][0]
        return set(getattr(changes, attr))


class VerifiedBefore(Predicate):
    """``last_verified`` (any source) strictly before *when*.  Not
    cacheable — verifications are feed-invisible."""

    TAG = "verified_before"

    def __init__(self, when: float) -> None:
        self.when = float(when)

    def matches(self, record) -> bool:
        return record.last_verified < self.when

    def to_dict(self) -> Dict[str, Any]:
        return {"t": self.TAG, "when": self.when}

    def cacheable(self) -> bool:
        return False


class Stale(Predicate):
    """Not verified by any *live* (non-DNS) probe since *horizon* — the
    "IP address no longer in use" signal of Table 8.  A record kept
    alive only by stale DNS data matches."""

    TAG = "stale"

    def __init__(self, horizon: float) -> None:
        self.horizon = float(horizon)

    def matches(self, record) -> bool:
        last = _live_verified(record)
        return last is None or last < self.horizon

    def to_dict(self) -> Dict[str, Any]:
        return {"t": self.TAG, "horizon": self.horizon}

    def cacheable(self) -> bool:
        return False


class Confidence(Predicate):
    """The record's overall quality: ``good`` means every attribute is
    good; ``questionable`` means at least one is.  Not cacheable — a
    good-quality re-verification upgrades a questionable attribute
    without a feed delta."""

    TAG = "confidence"

    def __init__(self, quality: str) -> None:
        if quality not in (Quality.GOOD, Quality.QUESTIONABLE):
            raise ValueError(f"unknown quality: {quality!r}")
        self.quality = quality

    def matches(self, record) -> bool:
        questionable = any(
            attribute.quality == Quality.QUESTIONABLE
            for attribute in record.attributes.values()
        )
        return questionable == (self.quality == Quality.QUESTIONABLE)

    def to_dict(self) -> Dict[str, Any]:
        return {"t": self.TAG, "quality": self.quality}

    def cacheable(self) -> bool:
        return False


class FieldEquals(Predicate):
    """One attribute equals a value exactly.  Identity fields plan
    through their exact-match indexes (``ip``/``mac``/``dns_name`` on
    interfaces, ``subnet`` on subnets)."""

    TAG = "field_equals"

    def __init__(self, field: str, value: Any) -> None:
        self.field = str(field)
        self.value = value

    def matches(self, record) -> bool:
        return record.get(self.field) == self.value

    def to_dict(self) -> Dict[str, Any]:
        return {"t": self.TAG, "field": self.field, "value": self.value}

    def candidates(self, journal, kind: str) -> Optional[Iterable[int]]:
        if self.value is None:
            return None
        if kind == "interfaces":
            if self.field == "ip":
                from .journal import ip_key

                try:
                    return journal.by_ip.get(ip_key(str(self.value)))
                except ValueError:
                    return []
            if self.field == "mac":
                return journal.by_mac.get(str(self.value))
            if self.field == "dns_name":
                return journal.by_name.get(str(self.value))
        elif kind == "subnets" and self.field == "subnet":
            return journal.by_subnet.get(str(self.value))
        return None

    def watch(self, kind: str) -> "_Watch":
        if self.value is None:
            return _AnyChange()
        if kind == "interfaces":
            if self.field == "ip":
                from .journal import ip_key

                try:
                    return _KeyExact(KEY_IP + ip_key(str(self.value)))
                except ValueError:
                    return _AnyChange()
            if self.field == "mac":
                return _KeyExact(KEY_MAC + str(self.value))
            if self.field == "dns_name":
                return _KeyExact(KEY_NAME + str(self.value))
        elif kind == "subnets" and self.field == "subnet":
            return _KeyExact(KEY_SUBNET + str(self.value))
        return _AnyChange()


class HasField(Predicate):
    """The record stores any value for *field* at all."""

    TAG = "has_field"

    def __init__(self, field: str) -> None:
        self.field = str(field)

    def matches(self, record) -> bool:
        return record.get(self.field) is not None

    def to_dict(self) -> Dict[str, Any]:
        return {"t": self.TAG, "field": self.field}


class RecordIds(Predicate):
    """Membership in an explicit id set — the replicator's batched
    member-resolution predicate (one query instead of a table scan per
    unresolved gateway member)."""

    TAG = "record_ids"

    def __init__(self, ids: Sequence[int]) -> None:
        self.ids = frozenset(int(i) for i in ids)

    def matches(self, record) -> bool:
        return record.record_id in self.ids

    def to_dict(self) -> Dict[str, Any]:
        return {"t": self.TAG, "ids": sorted(self.ids)}

    def candidates(self, journal, kind: str) -> Optional[Iterable[int]]:
        return self.ids


# ----------------------------------------------------------------------
# Wire codec
# ----------------------------------------------------------------------

_LEAF_BUILDERS = {
    InSubnet.TAG: lambda d: InSubnet(d["subnet"]),
    MacPrefix.TAG: lambda d: MacPrefix(d["prefix"]),
    ModifiedSince.TAG: lambda d: ModifiedSince(d["when"]),
    SinceRevision.TAG: lambda d: SinceRevision(d["rev"]),
    VerifiedBefore.TAG: lambda d: VerifiedBefore(d["when"]),
    Stale.TAG: lambda d: Stale(d["horizon"]),
    Confidence.TAG: lambda d: Confidence(d["quality"]),
    FieldEquals.TAG: lambda d: FieldEquals(d["field"], d.get("value")),
    HasField.TAG: lambda d: HasField(d["field"]),
    RecordIds.TAG: lambda d: RecordIds(d["ids"]),
}


def predicate_to_dict(predicate: Predicate) -> Dict[str, Any]:
    """Wire form of a predicate (pure JSON)."""
    return predicate.to_dict()


def predicate_from_dict(data: Dict[str, Any], *, _depth: int = 0) -> Predicate:
    """Rebuild a predicate from its wire form.  Raises
    :class:`~repro.core.wire.WireError` on malformed or unknown input;
    nesting is depth-capped so a hostile client cannot blow the stack."""
    if _depth > 32:
        raise _wire_error("predicate nesting too deep")
    if not isinstance(data, dict):
        raise _wire_error(f"predicate must be an object, got {type(data).__name__}")
    tag = data.get("t")
    try:
        if tag == And.TAG:
            return And(
                *(predicate_from_dict(c, _depth=_depth + 1) for c in data["of"])
            )
        if tag == Or.TAG:
            return Or(
                *(predicate_from_dict(c, _depth=_depth + 1) for c in data["of"])
            )
        if tag == Not.TAG:
            return Not(predicate_from_dict(data["of"], _depth=_depth + 1))
        builder = _LEAF_BUILDERS.get(tag)
        if builder is None:
            raise _wire_error(f"unknown predicate type: {tag!r}")
        return builder(data)
    except (KeyError, TypeError, ValueError) as error:
        from .wire import WireError

        if isinstance(error, WireError):
            raise
        raise _wire_error(f"malformed {tag!r} predicate: {error}") from None


def cache_key(predicate: Optional[Predicate]) -> str:
    """Canonical text form, stable across equal predicates — the
    QueryCache's entry key."""
    if predicate is None:
        return "*"
    return json.dumps(predicate.to_dict(), sort_keys=True, separators=(",", ":"))


def cacheable(predicate: Optional[Predicate]) -> bool:
    """May a QueryCache hold this predicate's results?  ``None`` (no
    filter: the whole table) is cacheable — every touch is a feed
    delta."""
    return True if predicate is None else predicate.cacheable()


# ----------------------------------------------------------------------
# Cache watches
# ----------------------------------------------------------------------


class _Watch:
    """Decides whether a feed delta's index keys can have changed a
    cached result.  Over-triggering is safe (a spurious eviction); the
    Journal logging each touched record's full current + previous
    identity keys is what makes under-triggering impossible."""

    def triggered(self, keys: Set[str]) -> bool:
        raise NotImplementedError


class _AnyChange(_Watch):
    def triggered(self, keys: Set[str]) -> bool:
        return True


class _KeyExact(_Watch):
    def __init__(self, key: str) -> None:
        self.key = key

    def triggered(self, keys: Set[str]) -> bool:
        return self.key in keys


class _KeyRange(_Watch):
    def __init__(self, low: str, high: str) -> None:
        self.low = low
        self.high = high

    def triggered(self, keys: Set[str]) -> bool:
        return any(self.low <= key <= self.high for key in keys)


class _All(_Watch):
    def __init__(self, children: List[_Watch]) -> None:
        self.children = children

    def triggered(self, keys: Set[str]) -> bool:
        return all(child.triggered(keys) for child in self.children)


class _AnyOf(_Watch):
    def __init__(self, children: List[_Watch]) -> None:
        self.children = children

    def triggered(self, keys: Set[str]) -> bool:
        return any(child.triggered(keys) for child in self.children)


def watch_for(predicate: Optional[Predicate], kind: str) -> _Watch:
    """The eviction watch for a cached (kind, predicate) entry."""
    if predicate is None:
        return _AnyChange()
    return predicate.watch(kind)


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------


def evaluate(journal, kind: str, predicate: Optional[Predicate]) -> List[Any]:
    """Run a query against a Journal: plan candidates from the
    secondary indexes, filter with the full predicate, and return
    records sorted by ``(last_modified, record_id)`` — byte-identical
    to dump-then-filter."""
    if kind not in KIND_TABLES:
        raise ValueError(f"unknown query kind: {kind!r}")
    table = getattr(journal, KIND_TABLES[kind][0])
    if predicate is None:
        matched = list(table.values())
    else:
        ids = predicate.candidates(journal, kind)
        if ids is None:
            pool: Iterable[Any] = table.values()
        else:
            seen: Set[int] = set()
            pool = []
            for rid in ids:
                if rid in seen or rid not in table:
                    continue
                seen.add(rid)
                pool.append(table[rid])
        matched = [record for record in pool if predicate.matches(record)]
    matched.sort(key=lambda record: (record.last_modified, record.record_id))
    return matched
