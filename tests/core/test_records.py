"""Record and attribute semantics: the triple timestamps of the paper."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.journal import Journal
from repro.core.records import (
    Attribute,
    GatewayRecord,
    InterfaceRecord,
    Observation,
    Quality,
    SubnetRecord,
)


class TestAttribute:
    def test_new_sets_all_three_timestamps(self):
        attribute = Attribute.new("v", 10.0, "ARPwatch")
        assert attribute.first_discovered == 10.0
        assert attribute.last_changed == 10.0
        assert attribute.last_verified == 10.0
        assert attribute.verified_by == "ARPwatch"

    def test_verify_updates_only_verification(self):
        attribute = Attribute.new("v", 10.0, "ARPwatch")
        attribute.verify(20.0, "SeqPing")
        assert attribute.first_discovered == 10.0
        assert attribute.last_changed == 10.0
        assert attribute.last_verified == 20.0
        assert attribute.verified_by == "SeqPing"

    def test_change_records_history(self):
        attribute = Attribute.new("old", 10.0, "ARPwatch")
        attribute.change("new", 30.0, "EtherHostProbe")
        assert attribute.value == "new"
        assert attribute.last_changed == 30.0
        assert attribute.first_discovered == 10.0
        assert attribute.history == [("old", 10.0)]

    def test_observe_same_value_verifies(self):
        attribute = Attribute.new("v", 10.0, "a")
        assert attribute.observe("v", 20.0, "b") is False
        assert attribute.last_verified == 20.0

    def test_observe_new_value_changes(self):
        attribute = Attribute.new("v", 10.0, "a")
        assert attribute.observe("w", 20.0, "b") is True
        assert attribute.value == "w"

    def test_questionable_cannot_overwrite_good(self):
        attribute = Attribute.new("good-value", 10.0, "ARPwatch", Quality.GOOD)
        changed = attribute.observe(
            "dns-guess", 20.0, "DNS", Quality.QUESTIONABLE
        )
        assert changed is False
        assert attribute.value == "good-value"

    def test_good_upgrades_questionable(self):
        attribute = Attribute.new("v", 10.0, "DNS", Quality.QUESTIONABLE)
        attribute.observe("v", 20.0, "SeqPing", Quality.GOOD)
        assert attribute.quality == Quality.GOOD

    def test_stale_verify_does_not_regress(self):
        attribute = Attribute.new("v", 10.0, "a")
        attribute.verify(50.0, "b")
        attribute.verify(40.0, "c")  # out-of-order report
        assert attribute.last_verified == 50.0
        assert attribute.verified_by == "b"


class TestInterfaceRecord:
    def test_set_and_get(self):
        record = InterfaceRecord()
        assert record.set("ip", "10.0.0.1", 1.0, "SeqPing") is True
        assert record.ip == "10.0.0.1"

    def test_reset_same_value_is_not_change(self):
        record = InterfaceRecord()
        record.set("ip", "10.0.0.1", 1.0, "SeqPing")
        assert record.set("ip", "10.0.0.1", 2.0, "SeqPing") is False

    def test_record_timestamps_aggregate_attributes(self):
        record = InterfaceRecord()
        record.set("ip", "10.0.0.1", 1.0, "a")
        record.set("mac", "08:00:20:00:00:01", 5.0, "b")
        assert record.first_discovered == 1.0
        assert record.last_verified == 5.0
        assert record.last_modified == 5.0

    def test_sources(self):
        record = InterfaceRecord()
        record.set("ip", "10.0.0.1", 1.0, "SeqPing")
        record.set("mac", "08:00:20:00:00:01", 2.0, "ARPwatch")
        assert record.sources() == {"SeqPing", "ARPwatch"}

    def test_properties_default_none(self):
        record = InterfaceRecord()
        assert record.ip is None
        assert record.mac is None
        assert record.dns_name is None
        assert record.subnet_mask is None
        assert record.gateway_id is None

    def test_record_ids_unique(self):
        # Ids are the owning Journal's: unique across its records of
        # every kind, and never the 0 a detached record carries.
        journal = Journal()
        a, _ = journal.submit(Observation(source="x", ip="10.0.0.1"))
        b, _ = journal.submit(Observation(source="x", ip="10.0.0.2"))
        gateway, _ = journal.ensure_gateway(source="x", interface_ids=[a.record_id])
        subnet, _ = journal.ensure_subnet("10.0.0.0/24", source="x")
        ids = [a.record_id, b.record_id, gateway.record_id, subnet.record_id]
        assert len(set(ids)) == 4 and 0 not in ids
        assert InterfaceRecord().record_id == 0

    def test_describe_mentions_key_fields(self):
        record = InterfaceRecord()
        record.set("ip", "10.0.0.1", 1.0, "x")
        assert "10.0.0.1" in record.describe()


class TestGatewayRecord:
    def test_add_interface_idempotent(self):
        gateway = GatewayRecord()
        assert gateway.add_interface(5, 1.0) is True
        assert gateway.add_interface(5, 2.0) is False
        assert gateway.interface_ids == [5]

    def test_attach_subnet_tracks_timestamps(self):
        gateway = GatewayRecord()
        assert gateway.attach_subnet("10.0.0.0/24", 1.0, "Traceroute") is True
        assert gateway.attach_subnet("10.0.0.0/24", 5.0, "DNS") is False
        attribute = gateway.connected_subnets["10.0.0.0/24"]
        assert attribute.first_discovered == 1.0
        assert attribute.last_verified == 5.0

    def test_name(self):
        gateway = GatewayRecord()
        gateway.set("name", "engr-gw", 1.0, "DNS")
        assert gateway.name == "engr-gw"


class TestSubnetRecord:
    def test_attach_gateway_idempotent(self):
        subnet = SubnetRecord()
        assert subnet.attach_gateway(3, 1.0) is True
        assert subnet.attach_gateway(3, 2.0) is False

    def test_census_fields(self):
        subnet = SubnetRecord()
        subnet.set("subnet", "10.0.0.0/24", 1.0, "DNS")
        subnet.set("host_count", 56, 1.0, "DNS")
        subnet.set("lowest_address", "10.0.0.10", 1.0, "DNS")
        subnet.set("highest_address", "10.0.0.66", 1.0, "DNS")
        assert subnet.subnet == "10.0.0.0/24"
        assert subnet.get("host_count") == 56


class TestObservation:
    def test_fields_drops_nones(self):
        observation = Observation(source="x", ip="10.0.0.1")
        assert observation.fields() == {"ip": "10.0.0.1"}

    def test_fields_keeps_false(self):
        observation = Observation(source="x", ip="10.0.0.1", rip_source=False)
        assert observation.fields()["rip_source"] is False

    def test_full_fields(self):
        observation = Observation(
            source="RIPwatch",
            ip="10.0.0.1",
            mac="08:00:20:00:00:01",
            dns_name="h.test",
            subnet_mask="255.255.255.0",
            vendor="Sun Microsystems",
            rip_source=True,
            promiscuous_rip=False,
        )
        assert len(observation.fields()) == 7

    @given(st.floats(min_value=0, max_value=1e9), st.floats(min_value=0, max_value=1e9))
    def test_attribute_monotone_verification(self, t1, t2):
        attribute = Attribute.new("v", 0.0, "a")
        attribute.verify(t1, "a")
        attribute.verify(t2, "a")
        assert attribute.last_verified == max(t1, t2, 0.0)
