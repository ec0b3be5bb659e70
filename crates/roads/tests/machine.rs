//! The fault rules of the per-query machine, deterministically.
//!
//! `QueryMachine` takes time as an argument, so everything the live
//! cluster's `fault_injection.rs` can only reach through threads and
//! wall-clock timeouts is driven here by a script and a counter: no
//! cluster, no thread, no sleep. One harness (`drive`) plays the network —
//! it opens every send the machine asks for at the current virtual time,
//! decides each contact's fate (reply after a delay, never reply, target
//! down), and feeds the machine its events in time order, waking it at
//! `next_wake_ms` when nothing else is due. The scripted tests fix the
//! fates by hand, one schedule per rule; the proptest draws networks,
//! queries, dead sets, fates and reply order at random and checks the
//! invariants that make `complete` and `failed_servers` trustworthy.

use proptest::prelude::*;
use roads_core::{
    ContactMode, FaultSettings, Finished, Outbound, QueryMachine, RoadsConfig, RoadsNetwork,
    SearchScope, ServerId, TraceEvent,
};
use roads_records::{OwnerId, Query, QueryBuilder, QueryId, Record, RecordId, Schema, Value};
use roads_summary::SummaryConfig;
use roads_telemetry::HopOutcome;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

const RECORDS_PER_SERVER: usize = 4;

/// `n` servers at fan-out `k`; server `s` holds four records whose values
/// `value(s, i)` places.
fn net_with(n: usize, k: usize, value: impl Fn(usize, usize) -> f64) -> RoadsNetwork {
    let cfg = RoadsConfig {
        max_children: k,
        summary: SummaryConfig::with_buckets(64),
        ..RoadsConfig::paper_default()
    };
    let records = (0..n)
        .map(|s| {
            (0..RECORDS_PER_SERVER)
                .map(|i| {
                    Record::new_unchecked(
                        RecordId((s * RECORDS_PER_SERVER + i) as u64),
                        OwnerId(s as u32),
                        vec![Value::Float(value(s, i))],
                    )
                })
                .collect()
        })
        .collect();
    RoadsNetwork::build(Schema::unit_numeric(1), cfg, records)
}

/// Server `s`'s records spread over `[s/n, (s+1)/n)`: the full range
/// matches everyone, a narrow one few.
fn spread_net(n: usize, k: usize) -> RoadsNetwork {
    let total = (n * RECORDS_PER_SERVER) as f64;
    net_with(n, k, |s, i| (s * RECORDS_PER_SERVER + i) as f64 / total)
}

fn range(net: &RoadsNetwork, lo: f64, hi: f64) -> Query {
    QueryBuilder::new(net.schema(), QueryId(1))
        .range("x0", lo, hi)
        .build()
}

/// `fault_injection.rs`'s settings: 250 ms per dispatch, one retry after
/// 5 ms, failover on, an 8 s deadline.
const FAULTY: FaultSettings = FaultSettings {
    dispatch_timeout_ms: 250,
    max_retries: 1,
    backoff_base_ms: 5,
    failover: true,
    deadline_ms: 8_000,
};

/// What becomes of one contact.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    /// The server answers; the reply lands this long after delivery.
    Reply(f64),
    /// Nothing ever comes back.
    Silent,
    /// The target is dead at delivery: the client hears so at once.
    Down,
}

/// An event on its way to the machine, ordered by time then by the order
/// it was scheduled in.
#[derive(Debug, PartialEq)]
struct Due {
    at_ms: f64,
    seq: usize,
    attempt: usize,
    down: bool,
}

impl Eq for Due {}
impl PartialOrd for Due {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Due {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at_ms.total_cmp(&other.at_ms)).then(self.seq.cmp(&other.seq))
    }
}

/// One driven query: the machine's verdict and what the client merged.
struct Run {
    verdict: Finished,
    /// Ids of the records handed over as fresh, in arrival order.
    merged: Vec<u64>,
    /// When the query ended, virtual ms.
    ended_ms: f64,
}

impl Run {
    fn contacts_of(&self, s: ServerId) -> Vec<&TraceEvent> {
        self.verdict.log.iter().filter(|e| e.server == s).collect()
    }

    fn merged_set(&self) -> BTreeSet<u64> {
        let set: BTreeSet<u64> = self.merged.iter().copied().collect();
        assert_eq!(set.len(), self.merged.len(), "a record was merged twice");
        set
    }
}

/// Ids of the records of `servers` that match `q`, by brute force.
fn brute_force(
    net: &RoadsNetwork,
    q: &Query,
    servers: impl Iterator<Item = ServerId>,
) -> BTreeSet<u64> {
    servers
        .flat_map(|s| net.search_local(s, q))
        .map(|r| r.id.0)
        .collect()
}

/// Drive one query to its end in virtual time. `fate` is asked once per
/// contact, as it opens, with its attempt id and log entry.
fn drive(
    net: &RoadsNetwork,
    q: &Query,
    entry: ServerId,
    faults: FaultSettings,
    mut fate: impl FnMut(usize, &TraceEvent) -> Fate,
) -> Run {
    let mut machine = QueryMachine::new(net, q, faults, true);
    let mut sends: Vec<Outbound> = Vec::new();
    let mut due: BinaryHeap<Reverse<Due>> = BinaryHeap::new();
    let mut merged = Vec::new();
    let mut now_ms = 0.0;
    machine.start(entry, &mut sends);
    for _step in 0..100_000 {
        for send in sends.drain(..) {
            let attempt = machine.open(&send, now_ms, 0.0);
            let delivered_ms = now_ms + send.backoff_ms;
            let (at_ms, down) = match fate(attempt, &machine.log()[attempt]) {
                Fate::Reply(after_ms) => (delivered_ms + after_ms, false),
                Fate::Down => (delivered_ms, true),
                Fate::Silent => continue,
            };
            let seq = attempt;
            due.push(Reverse(Due {
                at_ms,
                seq,
                attempt,
                down,
            }));
        }
        if machine.awaiting() == 0 {
            return Run {
                verdict: machine.finish(),
                merged,
                ended_ms: now_ms,
            };
        }
        // Whichever comes first: the next event, or the machine's wake-up.
        let wake_ms = machine.next_wake_ms();
        let next_ms = due.peek().map(|Reverse(d)| d.at_ms);
        match (next_ms, wake_ms) {
            (Some(at_ms), wake) if wake.is_none_or(|w| at_ms < w) => {
                let Reverse(d) = due.pop().expect("peeked");
                now_ms = d.at_ms;
                if d.down {
                    machine.target_down(d.attempt, now_ms, &mut sends);
                    continue;
                }
                let e = &machine.log()[d.attempt];
                let (server, mode) = (e.server, e.mode);
                let (search_local, targets) = net.route(server, q, mode, SearchScope::full());
                let found = if search_local {
                    net.search_local(server, q)
                } else {
                    Vec::new()
                };
                if machine.reply(d.attempt, now_ms, &targets, found.len(), &mut sends) {
                    merged.extend(found.iter().map(|r| r.id.0));
                }
            }
            (_, Some(wake_ms)) => {
                now_ms = wake_ms;
                machine.expire(now_ms, &mut sends);
            }
            (_, None) => panic!("contacts awaited, nothing due and nothing to expire"),
        }
    }
    panic!("the query did not terminate");
}

/// Everyone answers at once except where `special` says otherwise.
fn prompt_except(
    special: impl Fn(&TraceEvent) -> Option<Fate>,
) -> impl FnMut(usize, &TraceEvent) -> Fate {
    move |_, e| special(e).unwrap_or(Fate::Reply(1.0))
}

fn a_leaf(net: &RoadsNetwork) -> ServerId {
    let tree = net.tree();
    (tree.servers().into_iter())
        .find(|&s| tree.children(s).is_empty())
        .expect("every finite tree has a leaf")
}

#[test]
fn a_down_target_skips_the_retry_budget() {
    let net = spread_net(9, 3);
    let (root, victim) = (net.tree().root(), a_leaf(&net));
    let q = range(&net, 0.0, 1.0);
    let run = drive(
        &net,
        &q,
        root,
        FAULTY,
        prompt_except(|e| (e.server == victim).then_some(Fate::Down)),
    );
    assert_eq!(run.verdict.retries, 0);
    assert_eq!(run.verdict.failed_servers, vec![victim]);
    let [only] = run.contacts_of(victim)[..] else {
        panic!("a dead server is contacted once, never retried");
    };
    assert_eq!((only.outcome, only.tries), (HopOutcome::MailboxDown, 0));
    assert!(run.ended_ms < 250.0, "no timeout was waited for");
    assert!(!run.verdict.complete, "its own records are lost");
    let live = net.tree().servers().into_iter().filter(|&s| s != victim);
    assert_eq!(run.merged_set(), brute_force(&net, &q, live));
}

#[test]
fn a_reply_later_than_its_retrys_counts_its_server_once() {
    // `slow`'s first answer lands at 401 ms: after the 250 ms timeout
    // retried it, and after the retry's own answer (301 ms). `keeper` holds
    // the query open past that — a late reply only matters while something
    // is still awaited.
    let net = spread_net(4, 3);
    let root = net.tree().root();
    let (slow, keeper) = (net.tree().children(root)[0], net.tree().children(root)[1]);
    let q = range(&net, 0.0, 1.0);
    let run = drive(
        &net,
        &q,
        root,
        FAULTY,
        prompt_except(|e| match (e.server, e.tries) {
            (s, 0) if s == slow => Some(Fate::Reply(400.0)),
            (s, _) if s == slow => Some(Fate::Reply(45.0)),
            (s, 0) if s == keeper => Some(Fate::Silent),
            (s, _) if s == keeper => Some(Fate::Reply(240.0)),
            _ => None,
        }),
    );
    // Sent at 1, timed out at 251, retried after 5: the retry answers at
    // 301, the first attempt at 401 — each entry shows what happened to it.
    let at_slow: Vec<_> = (run.contacts_of(slow).into_iter())
        .map(|e| (e.tries, e.outcome, e.at_ms, e.closed_ms))
        .collect();
    assert_eq!(
        at_slow,
        [
            (0, HopOutcome::Replied, 1.0, 401.0),
            (1, HopOutcome::Replied, 251.0, 301.0),
        ]
    );
    assert_eq!(run.verdict.responders, 4, "each server once");
    assert_eq!(run.verdict.retries, 2);
    assert_eq!(run.merged_set().len(), 4 * RECORDS_PER_SERVER);
    assert!(run.verdict.complete && run.verdict.failed_servers.is_empty());
    assert_eq!(run.ended_ms, 496.0, "keeper's retry: 251 + 5 + 240");
}

#[test]
fn a_late_reply_withdraws_the_failure_verdict() {
    // `slow` is given up on at 506 ms (timeout, retry, timeout) while the
    // query is still waiting for `lost`, reached only at 201 ms through a
    // sluggish parent; `slow`'s first answer finally lands at 601 ms.
    let net = spread_net(13, 3);
    let tree = net.tree();
    let root = tree.root();
    let kids = tree.children(root);
    let (slow, sluggish) = (kids[0], kids[1]);
    let lost = tree.children(sluggish)[0];
    assert!(tree.children(slow).iter().all(|&c| c != lost));
    let q = range(&net, 0.0, 1.0);
    let run = drive(
        &net,
        &q,
        root,
        FAULTY,
        prompt_except(|e| match (e.server, e.tries, e.mode) {
            (s, 0, _) if s == slow => Some(Fate::Reply(600.0)),
            (s, _, _) if s == slow => Some(Fate::Silent),
            (s, _, ContactMode::Branch) if s == sluggish => Some(Fate::Reply(200.0)),
            (s, _, _) if s == lost => Some(Fate::Silent),
            _ => None,
        }),
    );
    // While `slow` stood failed a stand-in forwarded to its children; its
    // own late answer names them again and the ledger sends nothing twice.
    assert!(run
        .verdict
        .log
        .iter()
        .any(|e| e.mode == ContactMode::Failover { dead: slow }));
    assert_eq!(run.verdict.failed_servers, vec![lost], "slow is cleared");
    assert!(!run.verdict.complete);
    let live = tree.servers().into_iter().filter(|&s| s != lost);
    assert_eq!(run.merged_set(), brute_force(&net, &q, live));
    assert!(run.ended_ms > 600.0);
}

/// `fault_injection.rs`'s topology: the root's children `a`, `h`, `b`,
/// where `h`'s whole subtree holds values outside the query range — `h`
/// is never a direct target, only ever a stand-in — and sibling order
/// makes `h` the first candidate for `a` and, after `a`, for `b`.
fn shielded_helper_net() -> (RoadsNetwork, Query, [ServerId; 3]) {
    let n = 13;
    let (a, h, b, shielded) = {
        let probe = spread_net(n, 3);
        let tree = probe.tree();
        let ch = tree.children(tree.root()).to_vec();
        let shielded: Vec<usize> = tree.subtree(ch[1]).iter().map(|s| s.index()).collect();
        (ch[0], ch[1], ch[2], shielded)
    };
    let total = (n * RECORDS_PER_SERVER) as f64;
    let net = net_with(n, 3, |s, i| match shielded.contains(&s) {
        true => 0.9 + i as f64 * 0.003,
        false => (s * RECORDS_PER_SERVER + i) as f64 / total * 0.5,
    });
    let q = range(&net, 0.0, 0.5);
    let root = net.tree().root();
    assert!(!net.branch_summary(h).may_match(&q));
    assert_eq!(net.replica_set(a).failover_candidates(), vec![h, b, root]);
    assert_eq!(net.replica_set(b).failover_candidates(), vec![a, h, root]);
    (net, q, [a, h, b])
}

#[test]
fn a_failed_stand_in_is_not_renominated_for_another_dead_server() {
    let (net, q, [a, h, b]) = shielded_helper_net();
    let root = net.tree().root();
    // `a` and `h` are dead; `b` never answers, so its failure is known
    // only at 505 ms — long after `h` died standing in for `a`.
    let run = drive(
        &net,
        &q,
        root,
        FAULTY,
        prompt_except(|e| match e.server {
            s if s == a || s == h => Some(Fate::Down),
            s if s == b => Some(Fate::Silent),
            _ => None,
        }),
    );
    let nominations: Vec<_> = (run.contacts_of(h).into_iter()).map(|e| e.mode).collect();
    assert_eq!(nominations, [ContactMode::Failover { dead: a }]);
    // The root stood in for both in the end.
    for dead in [a, b] {
        let stood_in = (run.contacts_of(root).into_iter())
            .any(|e| e.mode == ContactMode::Failover { dead } && e.outcome == HopOutcome::Replied);
        assert!(stood_in, "the root routes around {dead}");
    }
    assert_eq!(run.verdict.failed_servers, vec![a, b]);
    let tree = net.tree();
    let live = (tree.servers().into_iter()).filter(|&s| s != a && s != b);
    assert_eq!(run.merged_set(), brute_force(&net, &q, live));
}

#[test]
fn a_stand_in_that_dies_helping_a_second_dead_server_is_passed_over() {
    let (net, q, [a, h, b]) = shielded_helper_net();
    let root = net.tree().root();
    // `a` and `b` are both dead at once. `h` stands in for `a` and does
    // the job, is nominated for `b` too and is struck down by then.
    let run = drive(
        &net,
        &q,
        root,
        FAULTY,
        prompt_except(|e| match (e.server, e.mode) {
            (s, _) if s == a || s == b => Some(Fate::Down),
            (s, ContactMode::Failover { dead }) if s == h && dead == b => Some(Fate::Down),
            _ => None,
        }),
    );
    let at_h: Vec<_> = (run.contacts_of(h).into_iter())
        .map(|e| (e.mode, e.outcome))
        .collect();
    assert_eq!(
        at_h,
        [
            (ContactMode::Failover { dead: a }, HopOutcome::Replied),
            (ContactMode::Failover { dead: b }, HopOutcome::MailboxDown),
        ]
    );
    let next = (run.verdict.log.iter())
        .find(|e| e.mode == ContactMode::Failover { dead: b } && e.server != h)
        .expect("b's next candidate takes over");
    assert_eq!((next.server, next.outcome), (root, HopOutcome::Replied));
    // A failed stand-in is nobody's lost data.
    assert_eq!(run.verdict.failed_servers, vec![a, b]);
    let tree = net.tree();
    let live = (tree.servers().into_iter()).filter(|&s| s != a && s != b);
    assert_eq!(run.merged_set(), brute_force(&net, &q, live));
}

#[test]
fn a_dead_entry_is_complete_only_with_a_replacement() {
    let net = spread_net(9, 3);
    let entry = a_leaf(&net);
    // Provably misses the entry's own records, matches others'.
    let q = range(&net, 0.8, 0.95);
    assert!(!net.local_summary(entry).may_match(&q));
    let everyone = || net.tree().servers().into_iter();
    let expected = brute_force(&net, &q, everyone());
    assert!(!expected.is_empty());
    let dead_entry = || prompt_except(|e| (e.server == entry).then_some(Fate::Down));

    let alone = FaultSettings {
        failover: false,
        ..FAULTY
    };
    let run = drive(&net, &q, entry, alone, dead_entry());
    assert!(run.merged.is_empty());
    assert!(
        !run.verdict.complete,
        "nobody examined the rest of the hierarchy"
    );
    assert_eq!(run.verdict.failed_servers, vec![entry]);

    let run = drive(&net, &q, entry, FAULTY, dead_entry());
    let replacement = &run.verdict.log[1];
    assert_eq!(
        (replacement.mode, replacement.caused_by),
        (ContactMode::Entry, Some(0))
    );
    assert_eq!(run.merged_set(), expected);
    assert!(run.verdict.complete, "provably empty entry + a replacement");
    assert_eq!(run.verdict.failed_servers, vec![entry]);
}

/// Tell `m` that `attempt` answered with `targets`, and open whatever it
/// sends: (were its records fresh, what was sent, under which attempts).
fn answer(
    m: &mut QueryMachine<'_>,
    attempt: usize,
    targets: &[(ServerId, ContactMode)],
    sends: &mut Vec<Outbound>,
) -> (bool, Vec<(ServerId, ContactMode)>, Vec<usize>) {
    let fresh = m.reply(attempt, attempt as f64, targets, RECORDS_PER_SERVER, sends);
    let opened = (sends.iter()).map(|s| m.open(s, 0.0, 0.0)).collect();
    let sent = sends.drain(..).map(|s| (s.target, s.mode)).collect();
    (fresh, sent, opened)
}

#[test]
fn a_probed_ancestor_is_readmitted_as_a_branch() {
    // The ledger's upgrade, scripted reply by reply: `p` is first probed
    // for its own records only, then named as a branch to descend.
    let net = spread_net(7, 2);
    let tree = net.tree();
    let root = tree.root();
    let p = tree.children(root)[0];
    let entry = tree.children(p)[0];
    let q = range(&net, 0.0, 1.0);
    let mut m = QueryMachine::new(&net, &q, FaultSettings::default(), true);
    let mut sends = Vec::new();
    m.start(entry, &mut sends);
    let at_entry = m.open(&sends.pop().unwrap(), 0.0, 0.0);
    let probe = [(p, ContactMode::LocalOnly), (root, ContactMode::Branch)];
    let (fresh, sent, opened) = answer(&mut m, at_entry, &probe, &mut sends);
    assert!(fresh);
    assert_eq!(sent, probe);
    let (at_p, at_root) = (opened[0], opened[1]);
    let (fresh, sent, _) = answer(&mut m, at_p, &[], &mut sends);
    assert!(fresh && sent.is_empty());

    // The root names `p` as a matching child: wider than the probe.
    let descend = [(p, ContactMode::Branch), (p, ContactMode::LocalOnly)];
    let (_, sent, opened) = answer(&mut m, at_root, &descend, &mut sends);
    assert_eq!(
        sent,
        [(p, ContactMode::Branch)],
        "upgraded once, never down"
    );
    // Its records are already in; its children are not.
    let below = [(entry, ContactMode::Branch)];
    let (fresh, sent, _) = answer(&mut m, opened[0], &below, &mut sends);
    assert!(!fresh, "p's records were merged by the probe");
    assert!(sent.is_empty(), "the entry ranks above a branch visit");
    assert_eq!(m.awaiting(), 0);
    let verdict = m.finish();
    assert_eq!(verdict.responders, 3);
    assert!(verdict.complete);
}

#[test]
fn a_probe_answer_does_not_cover_a_failed_branch_visit() {
    // `p` holds two duties in turn: its own records (the probe) and, once
    // the root names it, its children. Whichever order the probe's answer
    // and the branch visit's failure come in, the children it never
    // forwarded to — the entry's sibling among them — are unaccounted for.
    let net = spread_net(7, 2);
    let tree = net.tree();
    let root = tree.root();
    let p = tree.children(root)[0];
    let entry = tree.children(p)[0];
    let q = range(&net, 0.0, 1.0);
    let alone = FaultSettings {
        failover: false,
        ..FAULTY
    };
    let probe = [(p, ContactMode::LocalOnly), (root, ContactMode::Branch)];
    for answer_first in [true, false] {
        let mut m = QueryMachine::new(&net, &q, alone, true);
        let mut sends = Vec::new();
        m.start(entry, &mut sends);
        let at_entry = m.open(&sends.pop().unwrap(), 0.0, 0.0);
        let (_, _, opened) = answer(&mut m, at_entry, &probe, &mut sends);
        let (probe_p, at_root) = (opened[0], opened[1]);
        let (_, _, opened) = answer(&mut m, at_root, &[(p, ContactMode::Branch)], &mut sends);
        let branch_p = opened[0];
        if answer_first {
            assert!(answer(&mut m, probe_p, &[], &mut sends).0);
            assert!(m.target_down(branch_p, 9.0, &mut sends));
        } else {
            assert!(m.target_down(branch_p, 9.0, &mut sends));
            assert!(
                answer(&mut m, probe_p, &[], &mut sends).0,
                "its records count"
            );
        }
        assert!(sends.is_empty() && m.awaiting() == 0);
        let verdict = m.finish();
        assert_eq!(
            verdict.failed_servers,
            vec![p],
            "answer first: {answer_first}"
        );
        assert!(!verdict.complete, "p's other child was never reached");
    }
}

#[test]
fn the_deadline_abandons_what_is_awaited_and_starts_no_work() {
    let net = spread_net(4, 3);
    let root = net.tree().root();
    let q = range(&net, 0.0, 1.0);
    let faults = FaultSettings {
        dispatch_timeout_ms: 0, // only the deadline bounds this query
        deadline_ms: 200,
        ..FAULTY
    };
    let run = drive(
        &net,
        &q,
        root,
        faults,
        prompt_except(|e| (e.server != root).then_some(Fate::Silent)),
    );
    assert_eq!(run.ended_ms, 200.0);
    assert!(!run.verdict.complete, "a deadline cutoff is never complete");
    assert_eq!(run.verdict.log.len(), 4, "no retry, no stand-in");
    for e in &run.verdict.log[1..] {
        assert_eq!((e.outcome, e.closed_ms), (HopOutcome::Abandoned, 200.0));
    }
    let mut children = net.tree().children(root).to_vec();
    children.sort();
    assert_eq!(run.verdict.failed_servers, children, "pending ⇒ failed");
    assert_eq!(run.merged.len(), RECORDS_PER_SERVER);
}

/// SplitMix64: the fates' own random stream, so a case replays from its
/// seed whatever order the machine asks in.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Under any schedule of dead servers, silent contacts, late replies
    /// and reply orders the machine terminates, merges each record at most
    /// once, blames no live server whose answer it got, and tells the
    /// truth: `complete` means exactly the live servers' matches.
    #[test]
    fn any_fault_schedule_ends_in_a_truthful_answer(
        n in 5usize..=40,
        k in 2usize..=4,
        points in prop::collection::vec(0.0f64..1.0, 4..40),
        lo in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        // The rest of the case is drawn from `seed`: query width, failover,
        // how many servers are dead, how many contacts go silent or answer
        // late, the deadline.
        let mut rng = Rng(seed);
        let width = [0.02, 0.1, 0.3, 1.0][rng.below(4) as usize];
        let failover = rng.below(4) > 0;
        let dead_per_mille = rng.below(400);
        let (silent_per_mille, late_per_mille) = (rng.below(300), rng.below(300));
        let deadline_ms = [0, 700, 8_000][rng.below(3) as usize];
        // Each server's records huddle around its own point, so a narrow
        // query misses most servers' own data while matching below them:
        // completeness then hangs on the children, not on the server.
        let net = net_with(n, k, |s, i| (points[s % points.len()] + i as f64 * 0.004).min(1.0));
        let q = range(&net, lo, (lo + width).min(1.0));
        let entry = ServerId(rng.below(n as u64) as u32);
        let dead: BTreeSet<ServerId> = (net.tree().servers().into_iter())
            .filter(|_| rng.below(1000) < dead_per_mille)
            .collect();
        let faults = FaultSettings { deadline_ms, failover, ..FAULTY };

        // Per server, the widest mode it answered in (stand-ins aside).
        let mut answered: BTreeMap<ServerId, u8> = BTreeMap::new();
        let width = |mode| match mode {
            ContactMode::LocalOnly => 0u8,
            ContactMode::Branch => 1,
            _ => 2,
        };
        let mut fates: Vec<(ServerId, ContactMode, Fate)> = Vec::new();
        let run = drive(&net, &q, entry, faults, |_, e| {
            let fate = if dead.contains(&e.server) {
                Fate::Down
            } else {
                match rng.below(1000) {
                    r if r < silent_per_mille => Fate::Silent,
                    r if r < silent_per_mille + late_per_mille => {
                        Fate::Reply(250.0 + rng.below(600) as f64)
                    }
                    _ => Fate::Reply(rng.below(60) as f64),
                }
            };
            fates.push((e.server, e.mode, fate));
            fate
        });
        let verdict = &run.verdict;
        let deadline_hit = verdict.log.iter().any(|e| e.outcome == HopOutcome::Abandoned);

        // The log is causal and agrees with the verdict's counts.
        for (i, e) in verdict.log.iter().enumerate() {
            prop_assert!(e.caused_by.is_none_or(|c| c < i));
            if e.outcome == HopOutcome::Replied {
                prop_assert!(!dead.contains(&e.server), "a dead server replied");
                if !matches!(e.mode, ContactMode::Failover { .. }) {
                    let widest = answered.entry(e.server).or_default();
                    *widest = width(e.mode).max(*widest);
                }
            }
        }
        prop_assert_eq!(verdict.retries, verdict.log.iter().filter(|e| e.tries > 0).count());

        // Nobody is blamed who answered all that was asked of it — a
        // blamed server that did answer was asked for more (a probed
        // ancestor later visited as a branch) — and each record is merged
        // at most once (`merged_set` asserts it).
        for s in &verdict.failed_servers {
            let asked = (run.contacts_of(*s).into_iter())
                .filter(|e| !matches!(e.mode, ContactMode::Failover { .. }))
                .map(|e| width(e.mode))
                .max();
            prop_assert!(answered.get(s).copied() < asked, "{} answered and is blamed", s);
        }
        let merged = run.merged_set();
        let live = net.tree().servers().into_iter().filter(|s| !dead.contains(s));
        let truth = brute_force(&net, &q, live);
        prop_assert!(merged.is_subset(&truth), "a record nobody live holds");
        prop_assert_eq!(&merged, &brute_force(&net, &q, answered.keys().copied()));

        if verdict.complete {
            prop_assert!(!deadline_hit);
            prop_assert_eq!(&merged, &truth, "complete, yet not the live matches; fates {:?}", fates);
        } else {
            prop_assert!(
                !verdict.failed_servers.is_empty() || deadline_hit,
                "incomplete with nobody to blame"
            );
        }
        if faults.deadline_ms > 0 {
            prop_assert!(run.ended_ms <= faults.deadline_ms as f64);
        }
    }
}
