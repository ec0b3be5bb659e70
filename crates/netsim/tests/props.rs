//! Property tests: delay-space metric properties and engine determinism.

use proptest::prelude::*;
use roads_netsim::{
    Ctx, DelaySpace, DelaySpaceConfig, NodeId, Protocol, SimTime, Simulator, TimerTag, TrafficClass,
};

/// Relay chain: each node forwards the token to `next` until hops run out,
/// recording the path.
struct Relay {
    next: NodeId,
    log: Vec<(u64, u32)>,
}

#[derive(Clone)]
struct Token {
    hops: u32,
}

impl Protocol for Relay {
    type Msg = Token;
    fn on_message(&mut self, ctx: &mut Ctx<'_, Token>, _from: NodeId, msg: Token) {
        self.log.push((ctx.now().as_micros(), msg.hops));
        if msg.hops > 0 {
            ctx.send(
                self.next,
                Token { hops: msg.hops - 1 },
                32,
                TrafficClass::Query,
            );
        }
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_, Token>, _tag: TimerTag) {}
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn delay_space_is_symmetric_with_floor(
        n in 2usize..80,
        seed in any::<u64>(),
        a in any::<u32>(),
        b in any::<u32>(),
    ) {
        let d = DelaySpace::paper(n, seed);
        let (a, b) = (a as usize % n, b as usize % n);
        prop_assert!((d.delay_ms(a, b) - d.delay_ms(b, a)).abs() < 1e-12);
        prop_assert_eq!(d.delay_ms(a, a), 0.0);
        if a != b {
            prop_assert!(d.delay_ms(a, b) >= DelaySpaceConfig::paper_default().base_ms);
            prop_assert!(d.delay_ms(a, b).is_finite());
        }
    }

    #[test]
    fn same_seed_same_space(n in 2usize..60, seed in any::<u64>()) {
        let d1 = DelaySpace::paper(n, seed);
        let d2 = DelaySpace::paper(n, seed);
        for i in 0..n {
            prop_assert_eq!(d1.coords(i), d2.coords(i));
        }
    }

    #[test]
    fn relay_chain_is_deterministic_and_time_monotone(
        n in 2usize..20,
        hops in 1u32..30,
        seed in any::<u64>(),
    ) {
        let run = || {
            let nodes: Vec<Relay> = (0..n)
                .map(|i| Relay {
                    next: NodeId(((i + 1) % n) as u32),
                    log: Vec::new(),
                })
                .collect();
            let mut sim = Simulator::new(nodes, DelaySpace::paper(n, seed));
            sim.inject(
                SimTime::ZERO,
                NodeId(0),
                NodeId(0),
                Token { hops },
                32,
                TrafficClass::Query,
            );
            sim.run_to_completion();
            let logs: Vec<Vec<(u64, u32)>> =
                sim.nodes().map(|(_, r)| r.log.clone()).collect();
            (logs, sim.stats().clone(), sim.now())
        };
        let (l1, s1, t1) = run();
        let (l2, s2, t2) = run();
        prop_assert_eq!(&l1, &l2, "replay must be bit-identical");
        prop_assert_eq!(s1.total_bytes(), s2.total_bytes());
        prop_assert_eq!(t1, t2);
        // hops+1 deliveries, each 32 bytes.
        prop_assert_eq!(s1.total_messages(), hops as u64 + 1);
        prop_assert_eq!(s1.total_bytes(), (hops as u64 + 1) * 32);
        // Per-node logs are time-monotone.
        for log in &l1 {
            for w in log.windows(2) {
                prop_assert!(w[0].0 <= w[1].0);
            }
        }
    }
}
