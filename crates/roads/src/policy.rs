//! Voluntary-sharing policies (§II).
//!
//! "A participant's willingness to share resources by no means implies
//! surrendering the control over its resources. … based on who is
//! requesting resources, it may decide which types of resources will be
//! provided, thus presenting different 'views' to different parties. …
//! \[owners\] want to retain the final control over which resource records
//! are returned for a given query. For example, a company may provide more
//! resources to a business partner than arbitrary third parties."
//!
//! ROADS enables this structurally — only summaries leave the owner, and
//! the owner's server performs the final record search — and this module
//! supplies the decision point itself: a [`SharingPolicy`] is consulted for
//! every matching record before it is returned, and may disclose it fully,
//! redact attributes, or withhold it.

use roads_records::{AttrId, Record, Value};
use std::collections::HashSet;
use std::fmt;

/// Identity of a requesting party, as established by the (assumed, §II)
/// authentication layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequesterId(pub u32);

impl fmt::Display for RequesterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// Trust class an owner assigns to a requester. Ordered: a higher class
/// sees at least what a lower one sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TrustClass {
    /// Unauthenticated or unknown parties.
    Public,
    /// Members of the federation in good standing.
    Member,
    /// Business partners of this particular owner.
    Partner,
    /// The owner itself (full visibility).
    Owner,
}

/// The owner's decision for one matching record.
#[derive(Debug, Clone, PartialEq)]
pub enum Disclosure {
    /// Return the record unchanged.
    Full,
    /// Return the record with the listed attributes replaced by an opaque
    /// marker.
    Redacted(Vec<AttrId>),
    /// Do not return the record at all. The requester learns nothing — not
    /// even that a match existed.
    Withhold,
}

/// An owner's sharing policy: classifies requesters and decides disclosure
/// per matching record.
///
/// Policies run at the owner's attachment point only; ROADS never needs
/// them during summary aggregation or query forwarding, which is what lets
/// owners change policy without touching the rest of the federation.
pub trait SharingPolicy: Send + Sync {
    /// Trust class of a requester from this owner's point of view.
    fn classify(&self, requester: RequesterId) -> TrustClass;

    /// Disclosure decision for one record matching the query.
    fn disclose(&self, class: TrustClass, record: &Record) -> Disclosure;

    /// The most records one query hands a `class` requester; `None`: no limit.
    fn quota(&self, _class: TrustClass) -> Option<usize> {
        None
    }
}

/// Apply a policy to a matching record set, producing what the requester
/// actually receives.
pub fn apply_policy<'a>(
    policy: &dyn SharingPolicy,
    requester: RequesterId,
    matches: impl IntoIterator<Item = &'a Record>,
) -> Vec<Record> {
    disclose_each(policy, policy.classify(requester), matches, |_, _| {})
}

/// The one disclosure loop: decide each match in order until the class's
/// quota is met, telling `observe` every decision made.
fn disclose_each<'a>(
    policy: &dyn SharingPolicy,
    class: TrustClass,
    matches: impl IntoIterator<Item = &'a Record>,
    mut observe: impl FnMut(&Record, DecisionKind),
) -> Vec<Record> {
    let cap = policy.quota(class).unwrap_or(usize::MAX);
    let matches = matches.into_iter();
    let mut out = Vec::with_capacity(matches.size_hint().0.min(cap));
    for r in matches {
        if out.len() == cap {
            break;
        }
        let (kind, disclosed) = match policy.disclose(class, r) {
            Disclosure::Full => (DecisionKind::Full, Some(r.clone())),
            Disclosure::Redacted(attrs) => (DecisionKind::Redacted, Some(redact(r, &attrs))),
            Disclosure::Withhold => (DecisionKind::Withheld, None),
        };
        observe(r, kind);
        out.extend(disclosed);
    }
    out
}

/// Replace the listed attributes with an opaque marker. Numeric attributes
/// become NaN, categorical/text become `"<redacted>"` — both chosen so a
/// redacted value never accidentally satisfies a later predicate.
pub fn redact(record: &Record, attrs: &[AttrId]) -> Record {
    let hide: HashSet<usize> = attrs.iter().map(|a| a.index()).collect();
    let values = record
        .values()
        .iter()
        .enumerate()
        .map(|(i, v)| {
            if !hide.contains(&i) {
                return v.clone();
            }
            match v {
                Value::Float(_) => Value::Float(f64::NAN),
                Value::Int(_) => Value::Int(i64::MIN),
                Value::Timestamp(_) => Value::Timestamp(i64::MIN),
                Value::Text(_) => Value::Text("<redacted>".into()),
                Value::Cat(_) => Value::Cat("<redacted>".into()),
            }
        })
        .collect();
    Record::new_unchecked(record.id, record.owner, values)
}

/// Share everything with everyone — the degenerate policy the DHT baseline
/// forces on every participant.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpenPolicy;

impl SharingPolicy for OpenPolicy {
    fn classify(&self, _requester: RequesterId) -> TrustClass {
        TrustClass::Partner
    }
    fn disclose(&self, _class: TrustClass, _record: &Record) -> Disclosure {
        Disclosure::Full
    }
}

/// The paper's motivating policy shape: partners see more than members,
/// members more than the public.
///
/// Each record carries a sensitivity *tier* derived by a configurable
/// attribute (e.g. a categorical `"tier"` column); requesters are placed
/// in classes by explicit allowlists. Disclosure:
///
/// | record tier ↓ / class → | Public | Member | Partner/Owner |
/// |---|---|---|---|
/// | public | full | full | full |
/// | member | withhold | full | full |
/// | partner | withhold | redacted | full |
#[derive(Debug, Clone)]
pub struct TieredPolicy {
    /// Requesters classified as partners.
    partners: HashSet<RequesterId>,
    /// Requesters classified as members.
    members: HashSet<RequesterId>,
    /// Attribute holding each record's sensitivity tier
    /// (`"public" | "member" | "partner"`); `None` treats all records as
    /// `member`-tier.
    tier_attr: Option<AttrId>,
    /// Attributes hidden when a record is returned redacted.
    sensitive_attrs: Vec<AttrId>,
}

/// Record sensitivity tiers understood by [`TieredPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// Anyone may see the record.
    Public,
    /// Federation members may see the record.
    Member,
    /// Only partners (and the owner) may see the record un-redacted.
    Partner,
}

impl TieredPolicy {
    /// A policy with explicit partner/member allowlists.
    pub fn new(
        partners: impl IntoIterator<Item = RequesterId>,
        members: impl IntoIterator<Item = RequesterId>,
    ) -> Self {
        TieredPolicy {
            partners: partners.into_iter().collect(),
            members: members.into_iter().collect(),
            tier_attr: None,
            sensitive_attrs: Vec::new(),
        }
    }

    /// Derive each record's tier from a categorical attribute.
    pub fn with_tier_attr(mut self, attr: AttrId) -> Self {
        self.tier_attr = Some(attr);
        self
    }

    /// Attributes to hide in redacted disclosures.
    pub fn with_sensitive_attrs(mut self, attrs: Vec<AttrId>) -> Self {
        self.sensitive_attrs = attrs;
        self
    }

    fn tier_of(&self, record: &Record) -> Tier {
        let Some(attr) = self.tier_attr else {
            return Tier::Member;
        };
        match record.get(attr).as_str() {
            Some("public") => Tier::Public,
            Some("partner") => Tier::Partner,
            _ => Tier::Member,
        }
    }
}

impl SharingPolicy for TieredPolicy {
    fn classify(&self, requester: RequesterId) -> TrustClass {
        if self.partners.contains(&requester) {
            TrustClass::Partner
        } else if self.members.contains(&requester) {
            TrustClass::Member
        } else {
            TrustClass::Public
        }
    }

    fn disclose(&self, class: TrustClass, record: &Record) -> Disclosure {
        let tier = self.tier_of(record);
        match (tier, class) {
            (Tier::Public, _) => Disclosure::Full,
            (Tier::Member, TrustClass::Public) => Disclosure::Withhold,
            (Tier::Member, _) => Disclosure::Full,
            (Tier::Partner, TrustClass::Partner | TrustClass::Owner) => Disclosure::Full,
            (Tier::Partner, TrustClass::Member) => {
                Disclosure::Redacted(self.sensitive_attrs.clone())
            }
            (Tier::Partner, TrustClass::Public) => Disclosure::Withhold,
        }
    }
}

/// Per-requester rate/visibility quotas layered on another policy: at most
/// `max_records` records are disclosed per query to any requester below
/// `exempt_class`.
#[derive(Debug, Clone)]
pub struct QuotaPolicy<P> {
    inner: P,
    /// Maximum records disclosed per query.
    pub max_records: usize,
    /// Classes at or above this are not limited.
    pub exempt_class: TrustClass,
}

impl<P: SharingPolicy> QuotaPolicy<P> {
    /// Wrap `inner` with a per-query disclosure quota.
    pub fn new(inner: P, max_records: usize, exempt_class: TrustClass) -> Self {
        QuotaPolicy {
            inner,
            max_records,
            exempt_class,
        }
    }
}

impl<P: SharingPolicy> SharingPolicy for QuotaPolicy<P> {
    fn classify(&self, requester: RequesterId) -> TrustClass {
        self.inner.classify(requester)
    }
    fn disclose(&self, class: TrustClass, record: &Record) -> Disclosure {
        self.inner.disclose(class, record)
    }
    fn quota(&self, class: TrustClass) -> Option<usize> {
        let own = (class < self.exempt_class).then_some(self.max_records);
        own.into_iter().chain(self.inner.quota(class)).min()
    }
}

/// Audit log of disclosure decisions, for owners who want to review what
/// left their premises.
#[derive(Debug, Default, Clone)]
pub struct DisclosureAudit {
    entries: Vec<AuditEntry>,
}

/// One audited decision.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditEntry {
    /// Who asked.
    pub requester: RequesterId,
    /// Their trust class at decision time.
    pub class: TrustClass,
    /// The record decided on.
    pub record: roads_records::RecordId,
    /// What was decided.
    pub decision: DecisionKind,
}

/// Disclosure decision category (audit view of [`Disclosure`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    /// Returned in full.
    Full,
    /// Returned redacted.
    Redacted,
    /// Withheld.
    Withheld,
}

impl DisclosureAudit {
    /// Empty audit log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply a policy while recording every decision.
    pub fn apply_audited<'a>(
        &mut self,
        policy: &dyn SharingPolicy,
        requester: RequesterId,
        matches: impl IntoIterator<Item = &'a Record>,
    ) -> Vec<Record> {
        let class = policy.classify(requester);
        disclose_each(policy, class, matches, |r, decision| {
            self.entries.push(AuditEntry {
                requester,
                class,
                record: r.id,
                decision,
            })
        })
    }

    /// All recorded decisions.
    pub fn entries(&self) -> &[AuditEntry] {
        &self.entries
    }

    /// Count of decisions of a kind.
    pub fn count(&self, kind: DecisionKind) -> usize {
        self.entries.iter().filter(|e| e.decision == kind).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use roads_records::{AttrDef, OwnerId, RecordBuilder, RecordId, Schema, WireSize};

    fn schema() -> Schema {
        Schema::new(vec![
            AttrDef::categorical("tier"),
            AttrDef::categorical("kind"),
            AttrDef::numeric("capacity", 0.0, 100.0),
        ])
        .unwrap()
    }

    fn record(s: &Schema, id: u64, tier: &str, cap: f64) -> Record {
        RecordBuilder::new(s, RecordId(id), OwnerId(1))
            .set("tier", tier)
            .set("kind", "gpu")
            .set("capacity", cap)
            .build()
            .unwrap()
    }

    fn policy(s: &Schema) -> TieredPolicy {
        TieredPolicy::new([RequesterId(1)], [RequesterId(2)])
            .with_tier_attr(s.id("tier").unwrap())
            .with_sensitive_attrs(vec![s.id("capacity").unwrap()])
    }

    #[test]
    fn partner_sees_everything() {
        let s = schema();
        let records = vec![
            record(&s, 1, "public", 10.0),
            record(&s, 2, "member", 20.0),
            record(&s, 3, "partner", 30.0),
        ];
        let got = apply_policy(&policy(&s), RequesterId(1), &records);
        assert_eq!(got.len(), 3);
        assert_eq!(got[2].get_f64(s.id("capacity").unwrap()), Some(30.0));
    }

    #[test]
    fn member_gets_partner_records_redacted() {
        let s = schema();
        let records = vec![record(&s, 3, "partner", 30.0)];
        let got = apply_policy(&policy(&s), RequesterId(2), &records);
        assert_eq!(got.len(), 1);
        // Capacity redacted to NaN.
        assert!(got[0]
            .get_f64(s.id("capacity").unwrap())
            .expect("still numeric")
            .is_nan());
        // Non-sensitive attributes survive.
        assert_eq!(got[0].get(s.id("kind").unwrap()).as_str(), Some("gpu"));
    }

    #[test]
    fn public_is_walled_off_from_non_public_tiers() {
        let s = schema();
        let records = vec![
            record(&s, 1, "public", 10.0),
            record(&s, 2, "member", 20.0),
            record(&s, 3, "partner", 30.0),
        ];
        let got = apply_policy(&policy(&s), RequesterId(99), &records);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].id, RecordId(1));
    }

    #[test]
    fn open_policy_shares_all() {
        let s = schema();
        let records = vec![record(&s, 1, "partner", 1.0)];
        let got = apply_policy(&OpenPolicy, RequesterId(1234), &records);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn redacted_values_never_match_predicates() {
        let s = schema();
        let r = redact(
            &record(&s, 1, "partner", 50.0),
            &[s.id("capacity").unwrap()],
        );
        let q = roads_records::QueryBuilder::new(&s, roads_records::QueryId(0))
            .range("capacity", 0.0, 100.0)
            .build();
        assert!(!q.matches(&r), "NaN must fail every range predicate");
    }

    #[test]
    fn full_disclosure_shares_and_redaction_copies() {
        let s = schema();
        let source = record(&s, 1, "partner", 50.0);
        let full = apply_policy(&OpenPolicy, RequesterId(1), [&source]);
        assert_eq!(full, vec![source.clone()]);
        assert_eq!(full[0].values().as_ptr(), source.values().as_ptr());
        // A redacted view is a record of its own; the source keeps its values.
        let hidden = redact(&source, &[s.id("capacity").unwrap()]);
        assert_ne!(hidden.values().as_ptr(), source.values().as_ptr());
        assert_ne!(hidden, source);
        assert_eq!(source, record(&s, 1, "partner", 50.0));
    }

    #[test]
    fn quota_limits_low_trust_requesters() {
        let s = schema();
        let records: Vec<Record> = (0..10).map(|i| record(&s, i, "public", i as f64)).collect();
        // Installed as every policy is: behind `dyn SharingPolicy`.
        let p: &dyn SharingPolicy = &QuotaPolicy::new(policy(&s), 3, TrustClass::Partner);
        let ids = |got: Vec<Record>| got.iter().map(|r| r.id.0).collect::<Vec<_>>();
        let public = apply_policy(p, RequesterId(99), &records);
        assert_eq!(ids(public), [0, 1, 2], "public capped, first come");
        assert_eq!(apply_policy(p, RequesterId(2), &records).len(), 3, "member");
        assert_eq!(
            apply_policy(p, RequesterId(1), &records).len(),
            10,
            "exempt"
        );
        // The audit sees the decisions made, and none past the cap.
        let mut audit = DisclosureAudit::new();
        assert_eq!(audit.apply_audited(p, RequesterId(99), &records).len(), 3);
        assert_eq!(audit.entries().len(), 3);
        // Around a quota, the tighter cap holds for each class.
        let nested = QuotaPolicy::new(
            QuotaPolicy::new(policy(&s), 5, TrustClass::Owner),
            2,
            TrustClass::Member,
        );
        assert_eq!(nested.quota(TrustClass::Public), Some(2));
        assert_eq!(nested.quota(TrustClass::Partner), Some(5));
        assert_eq!(nested.quota(TrustClass::Owner), None);
    }

    #[test]
    fn trust_classes_ordered() {
        assert!(TrustClass::Owner > TrustClass::Partner);
        assert!(TrustClass::Partner > TrustClass::Member);
        assert!(TrustClass::Member > TrustClass::Public);
    }

    #[test]
    fn audit_records_every_decision() {
        let s = schema();
        let records = vec![
            record(&s, 1, "public", 10.0),
            record(&s, 2, "member", 20.0),
            record(&s, 3, "partner", 30.0),
        ];
        let mut audit = DisclosureAudit::new();
        let p = policy(&s);
        let member_view = audit.apply_audited(&p, RequesterId(2), &records);
        let public_view = audit.apply_audited(&p, RequesterId(99), &records);
        assert_eq!(member_view.len(), 3); // full, full, redacted
        assert_eq!(public_view.len(), 1);
        assert_eq!(audit.entries().len(), 6);
        assert_eq!(audit.count(DecisionKind::Withheld), 2);
        assert_eq!(audit.count(DecisionKind::Redacted), 1);
        let by_member = audit
            .entries()
            .iter()
            .filter(|e| e.requester == RequesterId(2));
        assert_eq!(by_member.count(), 3);
    }

    #[test]
    fn default_tier_is_member_without_tier_attr() {
        let s = schema();
        let p = TieredPolicy::new([RequesterId(1)], [RequesterId(2)]);
        let r = record(&s, 1, "partner", 5.0); // tier attr ignored
        assert_eq!(
            p.disclose(TrustClass::Public, &r),
            Disclosure::Withhold,
            "member-tier records are hidden from the public"
        );
        assert_eq!(p.disclose(TrustClass::Member, &r), Disclosure::Full);
    }

    fn wide_schema() -> Schema {
        Schema::new(vec![
            AttrDef::categorical("tier"),
            AttrDef::text("note"),
            AttrDef::numeric("capacity", 0.0, 100.0),
            AttrDef::categorical("kind"),
        ])
        .unwrap()
    }

    /// A match set in the order a search would hand it over: any tier, and
    /// text and categorical values of any length.
    fn arb_matches() -> impl Strategy<Value = Vec<Record>> {
        let row = (0usize..3, "[a-z ]{0,300}", 0.0f64..100.0, "[a-z]{0,40}");
        prop::collection::vec(row, 0..24).prop_map(|rows| {
            let s = wide_schema();
            let build = |(i, (tier, note, cap, kind)): (usize, (usize, String, f64, String))| {
                RecordBuilder::new(&s, RecordId(i as u64), OwnerId(1))
                    .set("tier", ["public", "member", "partner"][tier])
                    .set("note", Value::Text(note.into()))
                    .set("capacity", cap)
                    .set("kind", kind)
                    .build()
                    .unwrap()
            };
            rows.into_iter().enumerate().map(build).collect()
        })
    }

    fn arb_attrs() -> impl Strategy<Value = Vec<AttrId>> {
        prop::collection::vec(0u16..4, 0..5).prop_map(|a| a.into_iter().map(AttrId).collect())
    }

    proptest! {
        /// The loop against what it replaced: the parent's `filter_map`
        /// expression, then the quota's `take`.
        #[test]
        fn loop_equals_filter_then_take(
            matches in arb_matches(),
            sensitive in arb_attrs(),
            requester in prop_oneof![Just(1u32), Just(2u32), Just(99u32)],
            cap in prop_oneof![Just(None), (0usize..30).prop_map(Some)],
            exempt in 0usize..4,
        ) {
            let tiers = TieredPolicy::new([RequesterId(1)], [RequesterId(2)])
                .with_tier_attr(AttrId(0))
                .with_sensitive_attrs(sensitive);
            let exempt = [
                TrustClass::Public,
                TrustClass::Member,
                TrustClass::Partner,
                TrustClass::Owner,
            ][exempt];
            let requester = RequesterId(requester);
            let class = tiers.classify(requester);
            let limit = match cap {
                Some(max) if class < exempt => max,
                _ => usize::MAX,
            };
            let want: Vec<Record> = matches
                .iter()
                .filter_map(|r| match tiers.disclose(class, r) {
                    Disclosure::Full => Some(r.clone()),
                    Disclosure::Redacted(attrs) => Some(redact(r, &attrs)),
                    Disclosure::Withhold => None,
                })
                .take(limit)
                .collect();
            let policy: Box<dyn SharingPolicy> = match cap {
                Some(max) => Box::new(QuotaPolicy::new(tiers.clone(), max, exempt)),
                None => Box::new(tiers.clone()),
            };
            let got = apply_policy(policy.as_ref(), requester, &matches);
            // By `Debug`: a redacted number is NaN, which equals nothing.
            prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
            let mut audit = DisclosureAudit::new();
            let audited = audit.apply_audited(policy.as_ref(), requester, &matches);
            prop_assert_eq!(format!("{audited:?}"), format!("{want:?}"));
        }

        /// A redacted `Text` changes length; the size the view carries is
        /// the size it encodes to.
        #[test]
        fn redacted_view_knows_its_encoded_size(matches in arb_matches(), hide in arb_attrs()) {
            for r in &matches {
                let view = redact(r, &hide);
                let mut buf = bytes::BytesMut::new();
                roads_records::wire::encode_record(&view, &mut buf);
                prop_assert_eq!(view.wire_size(), buf.len());
            }
        }
    }
}
