//! The per-query protocol machine (§III-A's redirect protocol, §III-C's
//! failover through the replication overlay): every decision about
//! *whether* and *whom* to contact, made once for both planes.
//!
//! A [`QueryMachine`] owns one query's contact log (also its attempt
//! table), the visit ledger and the fault bookkeeping. It does no I/O and
//! reads no clock: a driver tells it what happened and when, each call
//! appends the sends it wants ([`Outbound`]) to a buffer the driver
//! reuses, and [`QueryMachine::finish`] says what the answer is worth.
//! The simulator ([`crate::queryexec`]) opens a contact when its send
//! arrives and reports the reply at that instant, with no faults; the
//! live cluster turns sends into timed deliveries and notices and
//! wake-ups into calls stamped with milliseconds since the query began.
//! Time is an argument, not a trait: a machine that is told the time
//! needs no clock to be faked (`tests/machine.rs`).

use crate::engine::{ContactMode, RoadsNetwork};
use crate::tree::ServerId;
use roads_records::Query;
use roads_telemetry::{ExplainDecision, HopOutcome, LatencySplit};
use std::collections::{BTreeMap, HashSet};

/// One entry of a query's contact log: which server was contacted, when,
/// in what mode, because of whom, what it did and how the contact ended.
/// Everything that describes a query after the fact is derived from it
/// (see [`crate::queryexec`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// The contacted server.
    pub server: ServerId,
    /// When the contact began, ms since the query did: its arrival at the
    /// server in the simulator, its dispatch by the live client.
    pub at_ms: f64,
    /// How the server was asked to treat the query.
    pub mode: ContactMode,
    /// Index in the log of the (earlier) contact that caused this one: it
    /// forwarded the query here, or failed and this retries or stands in
    /// for it. `None` for the entry.
    pub caused_by: Option<usize>,
    /// Records its local search produced.
    pub local_matches: usize,
    /// Servers the query went to because of its reply (left empty by a
    /// query nobody observes).
    pub forwarded_to: Vec<ServerId>,
    /// How the contact ended; `Abandoned` while it is still awaited, and
    /// for good if the query deadline cuts it off.
    pub outcome: HopOutcome,
    /// Retries of this target already behind this contact.
    pub tries: u32,
    /// When its reply, timeout or the deadline closed the contact, ms
    /// since query start (0 on a query nobody observes). The simulator
    /// models no replies: there a contact closes when the last contact it
    /// caused has been reached, so its span covers its redirect subtree.
    pub closed_ms: f64,
    /// Where the contact's time went; all network in the simulator.
    pub split: LatencySplit,
}

impl TraceEvent {
    /// A first contact that has just begun: awaited, nothing known yet.
    pub fn begun(server: ServerId, at_ms: f64, mode: ContactMode, cause: Option<usize>) -> Self {
        TraceEvent {
            server,
            at_ms,
            mode,
            caused_by: cause,
            local_matches: 0,
            forwarded_to: Vec::new(),
            outcome: HopOutcome::Abandoned,
            tries: 0,
            closed_ms: 0.0,
            split: LatencySplit::default(),
        }
    }
}

/// The fault path a contact took, if any: a re-dispatch of a timed-out
/// attempt, or a stand-in for a failed server — one asked to forward to
/// the dead server's children, or a replacement entry (only a failed
/// entry has another contact ask someone to be one).
pub fn fault_decision(
    mode: ContactMode,
    tries: u32,
    caused_by: Option<usize>,
) -> Option<ExplainDecision> {
    match mode {
        _ if tries > 0 => Some(ExplainDecision::Retry),
        ContactMode::Failover { .. } => Some(ExplainDecision::Failover),
        ContactMode::Entry if caused_by.is_some() => Some(ExplainDecision::Failover),
        _ => None,
    }
}

/// How a query treats contacts that do not answer. The default is "none"
/// — the simulator's setting, where every contact answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSettings {
    /// A contact unanswered this long after it was due out is timed out
    /// (0 = never).
    pub dispatch_timeout_ms: u64,
    /// Re-sends of a timed-out contact before its target is given up on.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles per retry after that.
    pub backoff_base_ms: u64,
    /// Whether a server given up on is routed around (§III-C).
    pub failover: bool,
    /// The whole query is cut off this long after it began (0 = never).
    pub deadline_ms: u64,
}

/// A message the machine wants sent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outbound {
    /// The server to contact.
    pub target: ServerId,
    /// How it is asked to treat the query.
    pub mode: ContactMode,
    /// Delay before the message leaves (a retry's backoff; else 0).
    pub backoff_ms: f64,
    /// Retries of this contact already behind it.
    pub tries: u32,
    /// The log entry whose reply or failure asked for this send.
    pub cause: Option<usize>,
}

/// What a finished query is worth ([`QueryMachine::finish`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Finished {
    /// The contact log, one entry per contact in the order they began.
    pub log: Vec<TraceEvent>,
    /// Whether the answer provably covers every matching record.
    pub complete: bool,
    /// Servers given up on, ascending by id — those whose own data or
    /// branch was being queried, not failed stand-ins.
    pub failed_servers: Vec<ServerId>,
    /// Contacts re-sent after a timeout.
    pub retries: usize,
    /// Distinct servers heard from (late, duplicate and stand-in replies
    /// count a server once).
    pub responders: usize,
}

/// Backoff before retry `tries + 1`, ms: the base doubles per prior
/// attempt, the shift capped so it cannot overflow into a zero delay.
fn backoff_delay_ms(base_ms: u64, tries: u32) -> f64 {
    base_ms.saturating_mul(1u64 << tries.min(16)) as f64
}

/// Widening order of the modes, from 1: a probe searches local data, a
/// branch visit also expands children, an entry also consults the overlay.
fn mode_rank(mode: ContactMode) -> u8 {
    match mode {
        ContactMode::LocalOnly => 1,
        ContactMode::Branch => 2,
        ContactMode::Entry => 3,
        ContactMode::Failover { .. } => unreachable!("failover visits dedup separately"),
    }
}

/// Mode-aware visited bookkeeping for one query's contacts. A set of
/// visited servers would drop the wider re-visit of a `LocalOnly`-probed
/// ancestor and with it the server's unexpanded children.
#[derive(Default)]
struct VisitLedger {
    /// The widest rank each server has been contacted at, by server index.
    visited: Vec<u8>,
    failover: HashSet<(ServerId, ServerId)>,
}

impl VisitLedger {
    /// Whether a contact of `target` in `mode` should go out: a repeat
    /// visit only when strictly wider than every prior one (a probed
    /// server later found to gate a matching branch must still expand its
    /// children). `Failover` visits are routing-only and tracked per
    /// `(target, dead server)` pair — one helper can route around several
    /// dead siblings — apart from the widening ladder.
    fn admit(&mut self, target: ServerId, mode: ContactMode) -> bool {
        if let ContactMode::Failover { dead } = mode {
            return self.failover.insert((target, dead));
        }
        let widest = &mut self.visited[target.index()];
        let wider = mode_rank(mode) > *widest;
        if wider {
            *widest = mode_rank(mode);
        }
        wider
    }
}

/// One query's protocol state; see the module docs for how it is driven.
pub struct QueryMachine<'a> {
    net: &'a RoadsNetwork,
    query: &'a Query,
    faults: FaultSettings,
    /// Whether anyone reads the log after the query. Nobody watching, an
    /// entry is not stamped with its closing time or redirect targets.
    observed: bool,
    /// The contact log and attempt table, indexed by attempt id. An entry
    /// is awaited while its outcome still reads `Abandoned`.
    log: Vec<TraceEvent>,
    /// Entries still awaiting a reply.
    awaited: usize,
    ledger: VisitLedger,
    /// By server index, the rank of the widest mode it answered in (0 =
    /// never): its local matches are the driver's already — a late reply
    /// racing a retry's must not merge twice — but a probe's answer says
    /// nothing of its children.
    resolved: Vec<u8>,
    /// Servers given up on, with the widest mode that failed.
    failed: BTreeMap<ServerId, ContactMode>,
    /// Stand-ins that died while helping: disqualified from further
    /// nominations, but nobody's lost data (so not in `failed`).
    dead_helpers: HashSet<ServerId>,
    deadline_hit: bool,
}

impl<'a> QueryMachine<'a> {
    /// A machine for `query` over `net`, nothing sent yet.
    pub fn new(
        net: &'a RoadsNetwork,
        query: &'a Query,
        faults: FaultSettings,
        observed: bool,
    ) -> Self {
        QueryMachine {
            net,
            query,
            faults,
            observed,
            // Room for a typical query: growing entry by entry cost the
            // simulator 4 % of its queries per second.
            log: Vec::with_capacity(32),
            awaited: 0,
            ledger: VisitLedger {
                visited: vec![0; net.len()],
                ..VisitLedger::default()
            },
            resolved: vec![0; net.len()],
            failed: BTreeMap::new(),
            dead_helpers: HashSet::new(),
            deadline_hit: false,
        }
    }

    /// The query starts at `entry`.
    pub fn start(&mut self, entry: ServerId, sends: &mut Vec<Outbound>) {
        self.forward(entry, ContactMode::Entry, None, sends);
    }

    /// The contact `send` asked for begins now, with `network_us` of
    /// transit known to the driver: open its log entry and await its
    /// reply. Returns the attempt id its end is reported under.
    pub fn open(&mut self, send: &Outbound, now_ms: f64, network_us: f64) -> usize {
        let mut e = TraceEvent::begun(send.target, now_ms, send.mode, send.cause);
        e.tries = send.tries;
        e.split.network_us = network_us;
        e.split.backoff_us = send.backoff_ms * 1_000.0;
        self.log.push(e);
        self.awaited += 1;
        self.log.len() - 1
    }

    /// The contact log so far.
    pub fn log(&self) -> &[TraceEvent] {
        &self.log
    }

    /// Contacts begun and still unanswered; none left (and every send
    /// opened) ends the query.
    pub fn awaiting(&self) -> usize {
        self.awaited
    }

    /// `attempt`'s server found `local_matches` records and names
    /// `targets` to contact next. Returns whether those matches are new to
    /// the result — not from a server already heard from (a late reply
    /// racing its retry's, a probed ancestor re-visited as a branch) nor
    /// from a stand-in, whose own records were not asked for.
    pub fn reply(
        &mut self,
        attempt: usize,
        now_ms: f64,
        targets: &[(ServerId, ContactMode)],
        local_matches: usize,
        sends: &mut Vec<Outbound>,
    ) -> bool {
        if self.deadline_hit {
            return false;
        }
        let e = &mut self.log[attempt];
        if e.outcome == HopOutcome::Abandoned {
            self.awaited -= 1;
        }
        // Even a late reply (after a timeout verdict) resolves its entry:
        // the log shows what actually happened.
        e.outcome = HopOutcome::Replied;
        e.local_matches = local_matches;
        if self.observed {
            e.closed_ms = now_ms;
        }
        let (server, mode) = (e.server, e.mode);
        // Any reply proves the server serviceable again, helper or not.
        self.dead_helpers.remove(&server);
        let mut fresh = false;
        if !matches!(mode, ContactMode::Failover { .. }) {
            let heard = &mut self.resolved[server.index()];
            fresh = *heard == 0;
            *heard = mode_rank(mode).max(*heard);
            // Withdraw a timed-out attempt's failure verdict — unless it
            // asked more of the server than it has answered yet.
            if (self.failed.get(&server)).is_some_and(|&gave_up| mode_rank(gave_up) <= *heard) {
                self.failed.remove(&server);
            }
        }
        let first_send = sends.len();
        for &(t, m) in targets {
            self.forward(t, m, Some(attempt), sends);
        }
        if self.observed {
            self.log[attempt].forwarded_to = sends[first_send..].iter().map(|o| o.target).collect();
        }
        fresh
    }

    /// How long `attempt`'s request waited at, and occupied, its server.
    pub fn served(&mut self, attempt: usize, queue_us: f64, compute_us: f64) {
        let split = &mut self.log[attempt].split;
        (split.queue_us, split.compute_us) = (queue_us, compute_us);
    }

    /// `attempt`'s target was found dead at delivery — and stays dead
    /// until restarted, so the retry budget is skipped and failover starts
    /// at once. `false` when the attempt had already closed.
    pub fn target_down(&mut self, attempt: usize, now_ms: f64, sends: &mut Vec<Outbound>) -> bool {
        self.attempt_failed(attempt, now_ms, HopOutcome::MailboxDown, sends)
    }

    /// Time is now `now_ms`. Past the deadline every awaited contact is
    /// abandoned, its target given up on and no more work started;
    /// otherwise those whose timeout is due are retried or given up on.
    /// Returns how many contacts this closed unanswered.
    pub fn expire(&mut self, now_ms: f64, sends: &mut Vec<Outbound>) -> usize {
        let deadline = self.past_deadline(now_ms);
        let how = match deadline {
            true => HopOutcome::Abandoned,
            false => HopOutcome::TimedOut,
        };
        let mut closed = 0;
        for id in 0..self.log.len() {
            let due = deadline || self.expiry_ms(&self.log[id]).is_some_and(|at| at <= now_ms);
            closed += (due && self.attempt_failed(id, now_ms, how, sends)) as usize;
        }
        self.deadline_hit |= deadline;
        closed
    }

    /// Whether the query's deadline has been reached at `now_ms`.
    pub fn past_deadline(&self, now_ms: f64) -> bool {
        self.faults.deadline_ms > 0 && now_ms >= self.faults.deadline_ms as f64
    }

    /// When [`Self::expire`] next has something to do (`None` = never):
    /// the earliest timeout of an awaited contact, or the deadline.
    pub fn next_wake_ms(&self) -> Option<f64> {
        let deadline = (self.faults.deadline_ms > 0).then_some(self.faults.deadline_ms as f64);
        (self.log.iter())
            .filter(|e| e.outcome == HopOutcome::Abandoned)
            .filter_map(|e| self.expiry_ms(e))
            .chain(deadline)
            .min_by(f64::total_cmp)
    }

    /// The query is over: what its answer is worth.
    pub fn finish(self) -> Finished {
        let mut seen = vec![false; self.net.len()];
        let mut first_reply = |e: &&TraceEvent| {
            e.outcome == HopOutcome::Replied
                && !std::mem::replace(&mut seen[e.server.index()], true)
        };
        Finished {
            complete: self.completeness(),
            failed_servers: self.failed.keys().copied().collect(),
            retries: self.log.iter().filter(|e| e.tries > 0).count(),
            responders: self.log.iter().filter(&mut first_reply).count(),
            log: self.log,
        }
    }

    /// Ask for a first contact of `target` in `mode`, the ledger willing.
    fn forward(
        &mut self,
        target: ServerId,
        mode: ContactMode,
        cause: Option<usize>,
        sends: &mut Vec<Outbound>,
    ) -> bool {
        let admitted = self.ledger.admit(target, mode);
        if admitted {
            sends.push(Outbound {
                target,
                mode,
                backoff_ms: 0.0,
                tries: 0,
                cause,
            });
        }
        admitted
    }

    /// Whether `s`'s own records have arrived.
    fn heard(&self, s: ServerId) -> bool {
        self.resolved[s.index()] > 0
    }

    /// When `e` times out if still unanswered (`None` = no timeout set).
    fn expiry_ms(&self, e: &TraceEvent) -> Option<f64> {
        let timeout_ms = self.faults.dispatch_timeout_ms;
        (timeout_ms > 0).then(|| e.at_ms + e.split.backoff_us / 1_000.0 + timeout_ms as f64)
    }

    /// An awaited attempt timed out, found its target dead or was cut off
    /// by the deadline: close it as `outcome`, retry a timeout while budget
    /// remains, else give up on the target and — the deadline aside, which
    /// starts no more work — route around it through the replication
    /// overlay. `false` when a reply raced in first or the attempt (or the
    /// query) had already closed.
    fn attempt_failed(
        &mut self,
        attempt: usize,
        now_ms: f64,
        outcome: HopOutcome,
        sends: &mut Vec<Outbound>,
    ) -> bool {
        let e = &mut self.log[attempt];
        if e.outcome != HopOutcome::Abandoned || self.deadline_hit {
            return false;
        }
        e.outcome = outcome;
        if self.observed {
            e.closed_ms = now_ms;
        }
        self.awaited -= 1;
        let (server, mode, tries) = (e.server, e.mode, e.tries);
        if outcome == HopOutcome::TimedOut && tries < self.faults.max_retries {
            // Retries bypass the visit ledger: same target, same mode.
            sends.push(Outbound {
                target: server,
                mode,
                backoff_ms: backoff_delay_ms(self.faults.backoff_base_ms, tries),
                tries: tries + 1,
                cause: Some(attempt),
            });
            return true;
        }
        let dead = match mode {
            ContactMode::Failover { dead } => {
                // The stand-in died too: no failover, for anyone, may
                // nominate it again; on to `dead`'s next candidate.
                self.dead_helpers.insert(server);
                dead
            }
            _ => {
                // Unless it answered as much via another attempt, it has
                // failed — in the widest duty it was ever given.
                let heard = self.resolved[server.index()];
                let gave_up = self.failed.get(&server).map_or(0, |&m| mode_rank(m));
                if mode_rank(mode) > heard.max(gave_up) {
                    self.failed.insert(server, mode);
                }
                server
            }
        };
        if outcome == HopOutcome::Abandoned {
            return true;
        }
        if mode == ContactMode::Entry {
            // A dead entry needs a replacement (to evaluate the overlay
            // for the rest of the hierarchy) *and* a stand-in for its own
            // branch: the replacement names the dead server too, but the
            // ledger already holds it at Entry rank.
            self.nominate(dead, ContactMode::Entry, attempt, sends);
        }
        // Nothing replicates *records*: a failed probe has nowhere to
        // fail over to. A stand-in only forwards to the dead server's
        // children: pointless when no unresolved child branch can match.
        let (net, query) = (self.net, self.query);
        let unresolved = |c: &ServerId| net.branch_summary(*c).may_match(query) && !self.heard(*c);
        if mode != ContactMode::LocalOnly && net.tree().children(dead).iter().any(unresolved) {
            self.nominate(dead, ContactMode::Failover { dead }, attempt, sends);
        }
        true
    }

    /// Send `dead`'s best overlay stand-in not yet tried in `mode` — for
    /// its branch (`Failover`) or its entry role. Helpers known dead are
    /// passed over, the ledger refuses those already asked; candidates
    /// exhausted, the subtree stays lost and `complete` reports it.
    fn nominate(
        &mut self,
        dead: ServerId,
        mode: ContactMode,
        cause: usize,
        sends: &mut Vec<Outbound>,
    ) {
        if !self.faults.failover {
            return;
        }
        for helper in self.net.replica_set(dead).failover_candidates() {
            let known_dead =
                self.failed.contains_key(&helper) || self.dead_helpers.contains(&helper);
            if !known_dead && self.forward(helper, mode, Some(cause), sends) {
                return;
            }
        }
    }

    /// Truthful completeness: sound because summaries never produce false
    /// negatives — `!may_match` proves absence, and every dispatched child
    /// of a failed server ends the query resolved or failed (recursing
    /// this check through its own entry in `failed`).
    ///
    /// A failed *entry* also requires that some Entry-mode reply landed:
    /// the entry role covers the overlay evaluation for the whole
    /// hierarchy, not just the dead server's data and children; with no
    /// replacement entry nothing ever examined the rest.
    fn completeness(&self) -> bool {
        let (net, query) = (self.net, self.query);
        let entry_served = || {
            (self.log.iter())
                .any(|e| e.mode == ContactMode::Entry && e.outcome == HopOutcome::Replied)
        };
        let children_covered = |s: ServerId| {
            net.tree().children(s).iter().all(|c| {
                !net.branch_summary(*c).may_match(query)
                    || self.heard(*c)
                    || self.failed.contains_key(c)
            })
        };
        !self.deadline_hit
            && self.failed.iter().all(|(&s, &mode)| {
                // Its own records: in hand (a narrower visit), or none.
                let local_ok = self.heard(s) || !net.local_summary(s).may_match(query);
                match mode {
                    ContactMode::LocalOnly => local_ok,
                    ContactMode::Branch => local_ok && children_covered(s),
                    ContactMode::Entry => local_ok && children_covered(s) && entry_served(),
                    ContactMode::Failover { .. } => true, // stand-ins hold no queried data
                }
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: fn(u32) -> ServerId = ServerId;

    #[test]
    fn ledger_admits_mode_upgrade_not_downgrade() {
        let mut l = VisitLedger {
            visited: vec![0; 9],
            ..VisitLedger::default()
        };
        assert!(l.admit(S(3), ContactMode::LocalOnly));
        // Regression (mode-insensitive dedup): the same server targeted as
        // Branch after a LocalOnly ancestor probe must be re-dispatched,
        // otherwise its children are never expanded and records are lost.
        assert!(l.admit(S(3), ContactMode::Branch));
        assert!(!l.admit(S(3), ContactMode::Branch), "same mode dedups");
        assert!(!l.admit(S(3), ContactMode::LocalOnly), "downgrade dedups");
        assert!(l.admit(S(3), ContactMode::Entry), "entry is widest");
    }

    #[test]
    fn ledger_entry_covers_narrower_modes() {
        let mut l = VisitLedger {
            visited: vec![0; 9],
            ..VisitLedger::default()
        };
        assert!(l.admit(S(0), ContactMode::Entry));
        assert!(!l.admit(S(0), ContactMode::Branch));
        assert!(!l.admit(S(0), ContactMode::LocalOnly));
    }

    #[test]
    fn ledger_failover_visits_track_per_dead_server() {
        let mut l = VisitLedger {
            visited: vec![0; 9],
            ..VisitLedger::default()
        };
        assert!(l.admit(S(1), ContactMode::LocalOnly));
        // A visited server can still act as failover helper...
        assert!(l.admit(S(1), ContactMode::Failover { dead: S(7) }));
        // ...once per dead sibling...
        assert!(!l.admit(S(1), ContactMode::Failover { dead: S(7) }));
        assert!(l.admit(S(1), ContactMode::Failover { dead: S(8) }));
        // ...without consuming its widening ladder.
        assert!(l.admit(S(1), ContactMode::Branch));
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        assert_eq!(backoff_delay_ms(10, 0), 10.0);
        assert_eq!(backoff_delay_ms(10, 1), 20.0);
        assert_eq!(backoff_delay_ms(10, 3), 80.0);
        assert!(backoff_delay_ms(u64::MAX, 40) >= (u64::MAX / 2) as f64);
    }
}
