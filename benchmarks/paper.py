"""The paper's published numbers, and a tiny report helper.

Every benchmark prints a paper-vs-measured table through
:func:`report`, so ``pytest benchmarks/ --benchmark-only -s`` regenerates
the evaluation section, row by row.  Absolute agreement is not expected
(the substrate is a simulator, not the 1992 UColorado campus); the
assertions in each benchmark check the *shape*: who wins, by roughly
what factor, and where the crossovers fall.
"""

from __future__ import annotations

from typing import Sequence, Tuple

# ---------------------------------------------------------------------
# Table 2: Journal storage requirements (bytes per record)
# ---------------------------------------------------------------------
TABLE2_BYTES = {"interface": 200, "gateway": 84, "subnet": 76}
#: "a 25% full class B network (16k interfaces) with 192 subnets used
#: (and an equal number of gateways) would require under four megabytes"
TABLE2_SCENARIO = {"interfaces": 16384, "subnets": 192, "gateways": 192}
TABLE2_LIMIT_BYTES = 4 * 1024 * 1024

# ---------------------------------------------------------------------
# Table 4: Explorer Module characteristics
# ---------------------------------------------------------------------
#: module -> (time-to-complete description, network load description)
TABLE4 = {
    "ARPwatch": ("continuous", "none"),
    "EtherHostProbe": ("1 sec/address", "1 - 4 pkts/sec"),
    "SeqPing": ("2 sec/address", ".5 pkts/sec"),
    "BrdcastPing": ("30 sec/subnet", "short storm"),
    "SubnetMasks": ("2 sec/address", ".5 pkts/sec"),
    "Traceroute": ("5 - 20 minutes", "4 - 8 pkts/sec"),
    "RIPwatch": ("2 minutes", "none"),
    "DNS": ("1 - 5 minutes", "10 pkts/sec"),
}

# ---------------------------------------------------------------------
# Table 5: Discovering interfaces on a subnet (denominator: 56 DNS)
# ---------------------------------------------------------------------
TABLE5 = {
    "ARPwatch-30min": (34, 61),
    "ARPwatch-24h": (50, 89),
    "EtherHostProbe": (48, 86),
    "BrdcastPing": (42, 75),
    "SeqPing": (38, 70),
    "DNS": (56, 100),
}

# ---------------------------------------------------------------------
# Table 6: Discovering subnets (denominator: 111 routable)
# ---------------------------------------------------------------------
TABLE6 = {
    "Traceroute": (86, 77),
    "RIPwatch": (111, 100),
    "DNS": (93, 84),
    "DNS-gateway-subnets": (48, 43),
}
TABLE6_DNS_GATEWAYS = 31

# ---------------------------------------------------------------------
# Table 7: characteristics the prototype discovers
# ---------------------------------------------------------------------
TABLE7_INTERFACE_FIELDS = (
    "mac", "ip", "dns_name", "subnet_mask", "gateway_id",
)
TABLE7_GATEWAY_FIELDS = ("interfaces", "connected_subnets")
TABLE7_SUBNET_FIELDS = ("gateways",)

# ---------------------------------------------------------------------
# Table 8: problems the prototype uncovers
# ---------------------------------------------------------------------
TABLE8_PROBLEMS = (
    "ip-no-longer-in-use",
    "hardware-change",
    "inconsistent-netmask",
    "duplicate-address",
    "promiscuous-rip",
)


def report(
    title: str,
    rows: Sequence[Tuple[object, ...]],
    *,
    columns: Tuple[str, ...] = ("paper", "measured"),
) -> str:
    """Print (and return) a paper-vs-measured comparison table: each
    row is a name followed by one value per column."""
    width = max([len(str(row[0])) for row in rows] + [len("row")])
    lines = [f"\n=== {title} ===",
             f"{'row':<{width}}" + "".join(f"  {column:>18}" for column in columns)]
    for name, *values in rows:
        lines.append(
            f"{name:<{width}}" + "".join(f"  {str(value):>18}" for value in values)
        )
    text = "\n".join(lines)
    print(text)
    return text
