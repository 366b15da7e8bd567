//! Frame/map equivalence: the dense `RoundFrame` and a plain
//! `BTreeMap<DirectedLink, bool>` send pattern describe the same round.
//!
//! The map is filled independently of the frame's bit layout, so the
//! property checks that `iter_set` — on the frame itself and on both
//! `Sends` views an adversary reads — yields exactly the map's entries,
//! in ascending `LinkId` order, on arbitrary topologies.

use std::collections::BTreeMap;

use netgraph::{topology, DirectedLink, Graph};
use netsim::{FrameBatch, RoundFrame, Sends};
use proptest::prelude::*;
use smallbias::Xoshiro256;

fn pick_topology(which: usize, seed: u64) -> Graph {
    match which % 5 {
        0 => topology::ring(5),
        1 => topology::line(6),
        2 => topology::clique(5),
        3 => topology::grid(2, 3),
        _ => topology::random_connected(7, 11, seed),
    }
}

/// A random send pattern: each directed link is silent, 0, or 1.
fn random_sends(g: &Graph, rng: &mut Xoshiro256) -> BTreeMap<DirectedLink, bool> {
    let mut sends = BTreeMap::new();
    for link in g.directed_links() {
        match rng.next_u64() % 3 {
            0 => {}
            1 => {
                sends.insert(link, false);
            }
            _ => {
                sends.insert(link, true);
            }
        }
    }
    sends
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `iter_set` enumerates exactly the map's entries, in LinkId order,
    /// whether read from the frame or through a `Sends` view.
    #[test]
    fn iter_set_matches_map(which in 0usize..5, seed in 0u64..10_000) {
        let g = pick_topology(which, seed);
        let mut rng = Xoshiro256::seeded(seed ^ 0x17E2);
        let sends = random_sends(&g, &mut rng);
        let mut frame = RoundFrame::for_graph(&g);
        for (&link, &bit) in &sends {
            frame.set(g.link_id(link).unwrap(), bit);
        }
        let mut batch = FrameBatch::for_graph(&g, 3);
        batch.set_round(1, &frame);

        let mut prev = None;
        let mut seen = 0usize;
        for (id, bit) in frame.iter_set() {
            prop_assert!(prev < Some(id), "iter_set out of order");
            prev = Some(id);
            prop_assert_eq!(sends.get(&g.link(id)).copied(), Some(bit));
            seen += 1;
        }
        prop_assert_eq!(seen, sends.len());

        let direct: Vec<_> = frame.iter_set().collect();
        prop_assert_eq!(&Sends::Frame(&frame).iter_set().collect::<Vec<_>>(), &direct);
        prop_assert_eq!(&Sends::Batch(&batch, 1).iter_set().collect::<Vec<_>>(), &direct);
    }
}
