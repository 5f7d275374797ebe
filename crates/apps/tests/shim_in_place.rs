//! The shim stamps and strips in the frame it is handed. For every probe an
//! application stamps through it, the bytes must be the ones the allocating
//! constructions give: `insert_transparent` on the way out,
//! `restore_inner_frame` on the way in.

use tpp_apps::common::{udp_frame, DATA_PORT};
use tpp_apps::{microburst, netsight, overhead, sketch};
use tpp_core::wire::{
    ethernet, insert_transparent, locate_tpp, restore_inner_frame, EthernetAddress, Ipv4Address,
    Tpp, TppLocation, TppView,
};
use tpp_endhost::{Filter, FlowRef, Shim};

fn shim_for(host: u32) -> Shim {
    Shim::new(Ipv4Address::from_host_id(host), EthernetAddress::from_node_id(host), host as u64)
}

#[test]
fn in_place_stamp_and_strip_match_the_allocating_constructions() {
    let probes = [
        ("microburst", microburst::microburst_probe()),
        ("netsight-history", netsight::history_probe()),
        ("sketch", sketch::sketch_probe()),
        ("overhead", overhead::overhead_probe()),
    ];
    let (src, dst) = (Ipv4Address::from_host_id(1), Ipv4Address::from_host_id(2));
    for (app, (name, probe)) in probes.iter().enumerate() {
        let app_id = 1 + app as u16;
        let mut tpp = probe.compile_hops(5).unwrap_or_else(|e| panic!("{name}: compile: {e}"));
        tpp.app_id = app_id;
        let mut tx = shim_for(1);
        tx.add_tpp(app_id, Filter::udp(), tpp.clone(), 1, 0);
        let mut rx = shim_for(2);
        rx.set_aggregator(app_id, dst);

        for payload_len in [0usize, 1, 256, 1400] {
            let plain = udp_frame(src, dst, 7100, DATA_PORT, payload_len);
            let stamped = tx.outgoing(plain.clone());
            assert_eq!(stamped, insert_transparent(&plain, &tpp), "{name}, {payload_len}: stamp");

            let TppLocation::Transparent { section } = locate_tpp(&stamped) else {
                panic!("{name}: not stamped");
            };
            let (view, consumed) = TppView::parse(&stamped[section..]).unwrap();
            let rebuilt = restore_inner_frame(&stamped, section, consumed, view.encap_proto());
            let out = rx.incoming(stamped);
            assert_eq!(out.deliver, Some(rebuilt), "{name}, {payload_len}: strip");
            assert_eq!(out.deliver, Some(plain), "{name}, {payload_len}: round trip");
            let done = out.completed.unwrap_or_else(|| panic!("{name}: no completion"));
            // The receiver sees the TPP naming the ethertype it displaced.
            let on_ipv4 = Tpp { encap_proto: ethernet::ethertype::IPV4, ..tpp.clone() };
            assert_eq!(done.tpp, on_ipv4, "{name}: completed TPP");
            let flow = FlowRef { src, dst, src_port: 7100, dst_port: DATA_PORT };
            assert_eq!(done.flow, flow, "{name}: flow");
        }
    }
}
