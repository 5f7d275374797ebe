// The seven programs `crates/apps` sends (microburst, RCP* collect and
// update, CONGA*, netsight, sketch, netverify), field for field. The plan
// cache's unit tests `include!` this file and its mutation loop
// (`crates/switch/tests/plan_cache_mutations.rs`) includes it with `#[path]`.

pub fn app_probes() -> [tpp_core::probe::Probe; 7] {
    use tpp_core::probe::Probe;
    [
        Probe::stack("microburst")
            .field("switch", "Switch:SwitchID")
            .field("port", "PacketMetadata:OutputPort")
            .field("q", "Queue:QueueOccupancyPkts"),
        Probe::hop("rcp-collect")
            .field("switch", "Switch:SwitchID")
            .field("qsize", "Link:QueueSize")
            .field("util", "Link:TX-Utilization")
            .field("version", "Link:AppSpecific_0")
            .field("rate", "Link:AppSpecific_1"),
        Probe::hop("rcp-update")
            .cstore("version", "Link:AppSpecific_0")
            .store("rate", "Link:AppSpecific_1"),
        Probe::hop("conga-path")
            .field("link", "Link:ID")
            .field("util", "Link:TX-Utilization")
            .field("tx_bytes", "Link:TX-Bytes"),
        Probe::stack("netsight-history")
            .field("switch", "Switch:ID")
            .field("entry", "PacketMetadata:MatchedEntryID")
            .field("in_port", "PacketMetadata:InputPort"),
        Probe::stack("sketch")
            .field("switch", "Switch:ID")
            .field("out_port", "PacketMetadata:OutputPort"),
        Probe::stack("netverify-trace").field("switch", "Switch:SwitchID"),
    ]
}
