"""Base protocol stack shared by hosts and gateways.

A :class:`Node` owns one or more :class:`~repro.netsim.nic.Nic`
interfaces and implements the protocol behaviour Fremont's Explorer
Modules probe: ARP request/reply with a per-interface cache, IPv4
delivery with real TTL semantics, an ICMP responder (echo, mask
request/reply, errors), a UDP echo service, and ICMP Port Unreachable
generation for closed ports (which traceroute relies on).

Behavioural variation between real-world systems — hosts that ignore
mask requests, broken routers that echo the received TTL back in
errors, gateways that silently drop expired packets — is expressed
through :class:`NodeQuirks`, which the fault-injection module toggles.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .addresses import Ipv4Address, MacAddress, Netmask, Subnet
from .arp import ArpCache
from .nic import Nic
from .packet import (
    ArpOp,
    ArpPacket,
    EthernetFrame,
    EtherType,
    IcmpPacket,
    IcmpType,
    Ipv4Packet,
    RipPacket,
    UdpDatagram,
    UDP_ECHO_PORT,
)
from .segment import Segment
from .sim import Simulator

__all__ = ["Node", "NodeQuirks", "LIMITED_BROADCAST"]

LIMITED_BROADCAST = Ipv4Address(0xFFFFFFFF)

#: How long a node retries an unresolved ARP before dropping the queue.
ARP_RETRY_INTERVAL = 1.0
ARP_MAX_TRIES = 3

IpListener = Callable[[Ipv4Packet, Nic], None]
UdpService = Callable[["Node", Nic, Ipv4Packet, UdpDatagram], None]
RipListener = Callable[["Node", Nic, Ipv4Packet, RipPacket], None]


@dataclass
class NodeQuirks:
    """Per-node behavioural switches for realistic heterogeneity."""

    responds_to_ping: bool = True
    responds_to_broadcast_ping: bool = True
    responds_to_mask_request: bool = True
    udp_echo_enabled: bool = True
    #: treat packets addressed to host-zero of an attached subnet as ours
    accepts_host_zero: bool = False
    #: send ICMP errors with the TTL copied from the offending packet
    #: (the paper's "some hosts send their Unreachable message back to the
    #: source using the TTL field from the received packet")
    ttl_echo_bug: bool = False
    #: drop TTL-expired packets without sending Time Exceeded
    #: (the paper's "gateway software problems" in Table 6)
    silent_ttl_drop: bool = False
    #: generate ICMP error messages at all (port/host/net unreachable);
    #: broken gateway software that stays mute defeats traceroute
    generates_icmp_errors: bool = True
    #: maximum random delay before answering a broadcast ping, seconds.
    #: Stacks answer within milliseconds of each other, so the replies
    #: to one directed broadcast contend for the wire — the paper's
    #: "closely spaced replies can cause many collisions".
    broadcast_reply_jitter: float = 0.02
    #: install host routes from received ICMP Redirects
    honors_redirects: bool = True
    #: issue proxy-ARP replies for these address ranges
    proxy_arp_for: List[Subnet] = field(default_factory=list)


class Node:
    """A multi-homed network node with a full ARP/IP/ICMP/UDP stack."""

    #: nodes do not forward by default; Gateway overrides this
    forwards_packets = False

    def __init__(
        self,
        sim: Simulator,
        name: str,
        *,
        quirks: Optional[NodeQuirks] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.quirks = quirks or NodeQuirks()
        self.nics: List[Nic] = []
        self.arp_caches: Dict[Nic, ArpCache] = {}
        self.default_gateway: Optional[Ipv4Address] = None
        #: host routes learned from ICMP Redirects: destination -> via
        self.redirect_routes: Dict[Ipv4Address, Ipv4Address] = {}
        self.packets_processed = 0
        self.icmp_sent = 0
        self._pending_arp: Dict[Tuple[int, Ipv4Address], List[Ipv4Packet]] = {}
        self._arp_tries: Dict[Tuple[int, Ipv4Address], int] = {}
        self._ip_listeners: List[IpListener] = []
        self._udp_services: Dict[int, UdpService] = {}
        self._rip_listeners: List[RipListener] = []
        self.powered_on = True
        # Deterministic per-node jitter source (stable across runs).
        digest = hashlib.sha256(name.encode("utf-8")).digest()
        self._jitter_rng = random.Random(int.from_bytes(digest[:8], "big"))

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------

    def add_nic(
        self,
        segment: Segment,
        ip: Ipv4Address,
        mask: Netmask,
        mac: MacAddress,
        *,
        arp_timeout: Optional[float] = None,
    ) -> Nic:
        """Attach an interface to *segment* with the given addressing."""
        nic = Nic(self, segment, ip, mask, mac)
        self.nics.append(nic)
        cache = ArpCache() if arp_timeout is None else ArpCache(timeout=arp_timeout)
        self.arp_caches[nic] = cache
        return nic

    def add_ip_listener(self, listener: IpListener) -> Callable[[], None]:
        """Observe every locally delivered IP packet.  Returns a remover.

        Explorer Modules running on this node use this to collect echo
        replies and ICMP errors without patching the stack.
        """
        self._ip_listeners.append(listener)
        return lambda: self._ip_listeners.remove(listener)

    def register_udp_service(self, port: int, service: UdpService) -> None:
        """Bind an application service (e.g. DNS) to a UDP port."""
        if port in self._udp_services:
            raise ValueError(f"UDP port {port} already bound on {self.name}")
        self._udp_services[port] = service

    def unregister_udp_service(self, port: int) -> None:
        self._udp_services.pop(port, None)

    def add_rip_listener(self, listener: RipListener) -> Callable[[], None]:
        self._rip_listeners.append(listener)
        return lambda: self._rip_listeners.remove(listener)

    def power_off(self) -> None:
        """Take the node off the network (all interfaces down)."""
        self.powered_on = False
        for nic in self.nics:
            nic.set_up(False)

    def power_on(self) -> None:
        self.powered_on = True
        for nic in self.nics:
            nic.set_up(True)

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------

    def local_ips(self) -> List[Ipv4Address]:
        return [nic.ip for nic in self.nics]

    def nic_toward(self, dst: Ipv4Address) -> Optional[Nic]:
        """The interface whose subnet contains *dst*, if any."""
        for nic in self.nics:
            if dst in nic.subnet:
                return nic
        return None

    def arp_table(self, nic: Optional[Nic] = None):
        """Live ARP entries (what EtherHostProbe reads back)."""
        nics = [nic] if nic is not None else self.nics
        entries = []
        for candidate in nics:
            entries.extend(self.arp_caches[candidate].entries(self.sim.now))
        return entries

    # ------------------------------------------------------------------
    # Frame reception
    # ------------------------------------------------------------------

    def handle_frame(self, nic: Nic, frame: EthernetFrame) -> None:
        if not self.powered_on:
            return
        self.packets_processed += 1
        if isinstance(frame.payload, ArpPacket):
            self._handle_arp(nic, frame.payload)
        elif isinstance(frame.payload, Ipv4Packet):
            self._handle_ip(nic, frame.payload, frame)

    # -- ARP -----------------------------------------------------------

    def _handle_arp(self, nic: Nic, arp: ArpPacket) -> None:
        cache = self.arp_caches[nic]
        if arp.op is ArpOp.REQUEST:
            # Requests carry the sender binding; everyone may learn it.
            cache.learn(arp.sender_ip, arp.sender_mac, self.sim.now)
            if self._answers_arp_for(nic, arp.target_ip):
                nic.send(
                    arp.sender_mac,
                    EtherType.ARP,
                    ArpPacket(
                        op=ArpOp.REPLY,
                        sender_mac=nic.mac,
                        sender_ip=arp.target_ip,
                        target_mac=arp.sender_mac,
                        target_ip=arp.sender_ip,
                    ),
                )
        else:
            cache.learn(arp.sender_ip, arp.sender_mac, self.sim.now)
            self._drain_pending(nic, arp.sender_ip, arp.sender_mac)

    def _answers_arp_for(self, nic: Nic, target: Ipv4Address) -> bool:
        if target == nic.ip:
            return True
        # Proxy ARP: some devices answer for a whole range (the paper's
        # modules must recognise these to avoid false duplicates).
        for covered in self.quirks.proxy_arp_for:
            if target in covered and target != nic.ip:
                return True
        return False

    def _drain_pending(self, nic: Nic, ip: Ipv4Address, mac: MacAddress) -> None:
        key = (id(nic), ip)
        packets = self._pending_arp.pop(key, [])
        self._arp_tries.pop(key, None)
        for packet in packets:
            nic.send(mac, EtherType.IPV4, packet)

    # -- IP ------------------------------------------------------------

    def _handle_ip(self, nic: Nic, packet: Ipv4Packet, frame: EthernetFrame) -> None:
        if self._is_local_delivery(nic, packet):
            self._deliver_local(nic, packet)
        elif self.forwards_packets and frame.dst_mac == nic.mac:
            self._forward(nic, packet)
        # Hosts silently drop transit packets (no forwarding).

    def _is_local_delivery(self, nic: Nic, packet: Ipv4Packet) -> bool:
        if packet.dst in self.local_ips():
            return True
        if packet.dst == LIMITED_BROADCAST:
            return True
        subnet = nic.subnet
        if packet.dst == subnet.broadcast:
            return True
        if packet.dst == subnet.host_zero:
            # Old-style "this network" address; accepted by configured
            # nodes (gateways accept it so traceroute's host-zero probe
            # elicits a reply pinning the gateway-subnet attachment).
            return self.quirks.accepts_host_zero
        return False

    def _deliver_local(self, nic: Nic, packet: Ipv4Packet) -> None:
        # Loose source routing: a waypoint forwards the packet onward
        # instead of consuming it.  Only forwarding nodes honour the
        # option; a host named as a waypoint silently drops the packet.
        if packet.source_route and packet.dst in self.local_ips():
            if self.forwards_packets:
                self._forward_source_routed(nic, packet)
            return
        for listener in list(self._ip_listeners):
            listener(packet, nic)
        payload = packet.payload
        if isinstance(payload, IcmpPacket):
            self._deliver_icmp(nic, packet, payload)
        elif isinstance(payload, UdpDatagram):
            self._deliver_udp(nic, packet, payload)
        elif isinstance(payload, RipPacket):
            for listener in list(self._rip_listeners):
                listener(self, nic, packet, payload)

    def _dst_was_broadcast(self, nic: Nic, packet: Ipv4Packet) -> bool:
        subnet = nic.subnet
        return packet.dst in (LIMITED_BROADCAST, subnet.broadcast)

    def _deliver_icmp(self, nic: Nic, packet: Ipv4Packet, icmp: IcmpPacket) -> None:
        if icmp.icmp_type is IcmpType.ECHO_REQUEST:
            broadcast = self._dst_was_broadcast(nic, packet)
            if broadcast and not self.quirks.responds_to_broadcast_ping:
                return
            if not self.quirks.responds_to_ping:
                return

            def reply() -> None:
                self._send_icmp(
                    nic,
                    packet.src,
                    IcmpPacket(IcmpType.ECHO_REPLY, ident=icmp.ident, seq=icmp.seq),
                    about=packet,
                )

            if broadcast and self.quirks.broadcast_reply_jitter > 0:
                # Stagger broadcast-ping answers slightly; the residual
                # clustering still collides on dense subnets (Table 5).
                delay = self._jitter_rng.uniform(0, self.quirks.broadcast_reply_jitter)
                self.sim.schedule(delay, reply)
            else:
                reply()
        elif icmp.icmp_type is IcmpType.REDIRECT:
            if (
                self.quirks.honors_redirects
                and icmp.gateway is not None
                and icmp.original is not None
                and self.nic_toward(icmp.gateway) is not None
            ):
                self.redirect_routes[icmp.original.dst] = icmp.gateway
        elif icmp.icmp_type is IcmpType.MASK_REQUEST:
            if not self.quirks.responds_to_mask_request:
                return
            self._send_icmp(
                nic,
                packet.src,
                IcmpPacket(
                    IcmpType.MASK_REPLY,
                    ident=icmp.ident,
                    seq=icmp.seq,
                    mask=nic.mask,
                ),
                about=packet,
            )
        # Echo replies, mask replies and errors terminate here; the
        # listeners above have already seen them.

    def _deliver_udp(self, nic: Nic, packet: Ipv4Packet, udp: UdpDatagram) -> None:
        service = self._udp_services.get(udp.dst_port)
        if service is not None:
            service(self, nic, packet, udp)
            return
        if udp.dst_port == UDP_ECHO_PORT and self.quirks.udp_echo_enabled:
            reply = UdpDatagram(
                src_port=UDP_ECHO_PORT, dst_port=udp.src_port, payload=udp.payload
            )
            self.send_ip(
                Ipv4Packet(
                    src=self._reply_source(nic, packet),
                    dst=packet.src,
                    ttl=Ipv4Packet.DEFAULT_TTL,
                    payload=reply,
                )
            )
            return
        # Closed port: emit Port Unreachable unless the packet was a
        # broadcast (generating errors for broadcasts causes storms).
        if self._dst_was_broadcast(nic, packet):
            return
        if not self.quirks.generates_icmp_errors:
            return
        self._send_icmp(
            nic,
            packet.src,
            IcmpPacket(IcmpType.DEST_UNREACHABLE_PORT, original=packet),
            about=packet,
        )

    def _reply_source(self, nic: Nic, packet: Ipv4Packet) -> Ipv4Address:
        """Source address for replies: the receiving interface's address."""
        if packet.dst in self.local_ips():
            return packet.dst
        return nic.ip

    def _send_icmp(
        self,
        nic: Nic,
        dst: Ipv4Address,
        icmp: IcmpPacket,
        *,
        about: Ipv4Packet,
    ) -> None:
        """Emit an ICMP message, honouring the TTL-echo quirk for errors."""
        ttl = Ipv4Packet.DEFAULT_TTL
        error_types = (
            IcmpType.TIME_EXCEEDED,
            IcmpType.DEST_UNREACHABLE_PORT,
            IcmpType.DEST_UNREACHABLE_HOST,
            IcmpType.DEST_UNREACHABLE_NET,
            IcmpType.DEST_UNREACHABLE_PROTOCOL,
        )
        if self.quirks.ttl_echo_bug and icmp.icmp_type in error_types:
            ttl = max(1, about.ttl)
        self.icmp_sent += 1
        self.send_ip(
            Ipv4Packet(
                src=self._reply_source(nic, about),
                dst=dst,
                ttl=ttl,
                payload=icmp,
            )
        )

    # ------------------------------------------------------------------
    # Forwarding (gateway subclass hooks in here)
    # ------------------------------------------------------------------

    def _forward(self, in_nic: Nic, packet: Ipv4Packet) -> None:  # pragma: no cover
        raise NotImplementedError("plain nodes do not forward")

    def _forward_source_routed(self, nic: Nic, packet: Ipv4Packet) -> None:
        """Hook for forwarding nodes to advance a loose source route."""

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------

    def route_lookup(self, dst: Ipv4Address) -> Optional[Tuple[Nic, Optional[Ipv4Address]]]:
        """(egress nic, next-hop IP or None for direct) toward *dst*."""
        direct = self.nic_toward(dst)
        if direct is not None:
            return direct, None
        # Host routes learned from ICMP Redirects beat the default.
        redirected = self.redirect_routes.get(dst)
        if redirected is not None:
            via = self.nic_toward(redirected)
            if via is not None:
                return via, redirected
        if self.default_gateway is not None:
            via = self.nic_toward(self.default_gateway)
            if via is not None:
                return via, self.default_gateway
        return None

    def send_ip(self, packet: Ipv4Packet, *, via: Optional[Nic] = None) -> bool:
        """Route and transmit an IP packet originated by (or forwarded
        through) this node.  Returns False if no route exists."""
        if not self.powered_on:
            return False
        if via is None:
            route = self.route_lookup(packet.dst)
            if route is None:
                return False
            nic, next_hop = route
        else:
            nic, next_hop = via, None
        # Broadcast-style destinations map straight to the MAC broadcast.
        subnet = nic.subnet
        if packet.dst in (LIMITED_BROADCAST, subnet.broadcast, subnet.host_zero):
            nic.send(MacAddress.broadcast(), EtherType.IPV4, packet)
            return True
        target_ip = next_hop if next_hop is not None else packet.dst
        self._transmit_via_arp(nic, target_ip, packet)
        return True

    def _transmit_via_arp(self, nic: Nic, target_ip: Ipv4Address, packet: Ipv4Packet) -> None:
        cache = self.arp_caches[nic]
        mac = cache.lookup(target_ip, self.sim.now)
        if mac is not None:
            nic.send(mac, EtherType.IPV4, packet)
            return
        key = (id(nic), target_ip)
        queue = self._pending_arp.setdefault(key, [])
        queue.append(packet)
        if len(queue) == 1:
            self._arp_tries[key] = 0
            self._send_arp_request(nic, target_ip)

    def _send_arp_request(self, nic: Nic, target_ip: Ipv4Address) -> None:
        key = (id(nic), target_ip)
        if key not in self._pending_arp:
            return
        tries = self._arp_tries.get(key, 0)
        if tries >= ARP_MAX_TRIES:
            packets = self._pending_arp.pop(key, [])
            self._arp_tries.pop(key, None)
            self._arp_failed(nic, target_ip, packets)
            return
        self._arp_tries[key] = tries + 1
        nic.send(
            MacAddress.broadcast(),
            EtherType.ARP,
            ArpPacket(
                op=ArpOp.REQUEST,
                sender_mac=nic.mac,
                sender_ip=nic.ip,
                target_mac=None,
                target_ip=target_ip,
            ),
        )
        # Retries are splayed per node so that hosts which all missed the
        # same broadcast reply do not re-collide in lockstep.
        retry_in = ARP_RETRY_INTERVAL + self._jitter_rng.uniform(0.0, 0.5)
        self.sim.schedule(retry_in, lambda: self._send_arp_request(nic, target_ip))

    def _arp_failed(self, nic: Nic, target_ip: Ipv4Address, packets: List[Ipv4Packet]) -> None:
        """Hook: called when ARP resolution gives up.  Gateways send
        Host Unreachable for the queued packets; hosts drop silently."""

    # -- Convenience senders (the Explorer Module API) ------------------

    def primary_nic(self) -> Nic:
        if not self.nics:
            raise RuntimeError(f"{self.name} has no interfaces")
        return self.nics[0]

    def send_udp(
        self,
        dst: Ipv4Address,
        dst_port: int,
        payload: object = None,
        *,
        src_port: int = 1024,
        ttl: int = Ipv4Packet.DEFAULT_TTL,
        src: Optional[Ipv4Address] = None,
    ) -> bool:
        return self.send_ip(
            Ipv4Packet(
                src=src or self.primary_nic().ip,
                dst=dst,
                ttl=ttl,
                payload=UdpDatagram(src_port=src_port, dst_port=dst_port, payload=payload),
            )
        )

    def send_icmp_echo(
        self,
        dst: Ipv4Address,
        *,
        ident: int = 0,
        seq: int = 0,
        ttl: int = Ipv4Packet.DEFAULT_TTL,
    ) -> bool:
        return self.send_ip(
            Ipv4Packet(
                src=self.primary_nic().ip,
                dst=dst,
                ttl=ttl,
                payload=IcmpPacket(IcmpType.ECHO_REQUEST, ident=ident, seq=seq),
            )
        )

    def send_mask_request(self, dst: Ipv4Address, *, ident: int = 0, seq: int = 0) -> bool:
        return self.send_ip(
            Ipv4Packet(
                src=self.primary_nic().ip,
                dst=dst,
                ttl=Ipv4Packet.DEFAULT_TTL,
                payload=IcmpPacket(IcmpType.MASK_REQUEST, ident=ident, seq=seq),
            )
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"
