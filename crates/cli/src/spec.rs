//! On-disk scenario format.
//!
//! A scenario is a JSON document describing a topology, its flow rules,
//! and optionally a set of injected faults — everything needed to
//! reproduce a detection run from the command line or check a policy
//! statically. `sdnprobe synth` writes these; `plan`, `diagnose`, and
//! `detect` consume them.

use sdnprobe_dataplane::{
    Action, Activation, EntryId, FaultKind, FaultSpec, FlowEntry, Network, TableId,
};
use sdnprobe_headerspace::Ternary;
use sdnprobe_topology::{PortId, SwitchId, Topology};
use sdnprobe_workloads::json::{self, Value};

/// Errors when loading or building a scenario.
#[derive(Debug)]
#[non_exhaustive]
pub enum SpecError {
    /// JSON or I/O problem.
    Io(String),
    /// The scenario content is inconsistent.
    Invalid(String),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(m) => write!(f, "scenario i/o error: {m}"),
            Self::Invalid(m) => write!(f, "invalid scenario: {m}"),
        }
    }
}

impl std::error::Error for SpecError {}

/// The topology section.
#[derive(Debug, Clone)]
pub struct TopologySpec {
    /// Number of switches.
    pub switches: usize,
    /// Undirected links as switch-id pairs.
    pub links: Vec<(usize, usize)>,
}

/// A rule's action; in JSON, an object tagged by `type` (`forward`,
/// `host_port`, `drop` or `controller`).
#[derive(Debug, Clone)]
pub enum ActionSpec {
    /// Forward toward a neighbouring switch (resolved to a port).
    Forward {
        /// The neighbour switch id.
        to: usize,
    },
    /// Egress toward hosts on a raw port number.
    HostPort {
        /// The port number.
        port: u32,
    },
    /// Drop.
    Drop,
    /// Punt to the controller.
    Controller,
}

/// One flow entry.
#[derive(Debug, Clone)]
pub struct RuleSpec {
    /// Hosting switch.
    pub switch: usize,
    /// Ternary match string, e.g. `"0010xxxx"`.
    pub match_field: String,
    /// Optional ternary set field (omitted from JSON when `None`).
    pub set_field: Option<String>,
    /// Action.
    pub action: ActionSpec,
    /// Priority (higher wins; 0 when omitted).
    pub priority: u16,
}

/// A fault attached to a rule by index into `rules`; in JSON, an object
/// tagged by `kind` (`drop`, `modify`, `misdirect` or `detour`).
#[derive(Debug, Clone)]
pub enum FaultSpecDef {
    /// Silently drop matched packets.
    Drop {
        /// Index into the scenario's `rules`.
        rule: usize,
    },
    /// Rewrite matched packets with this ternary before forwarding.
    Modify {
        /// Index into the scenario's `rules`.
        rule: usize,
        /// Malicious set field.
        set_field: String,
    },
    /// Forward matched packets out of the wrong port.
    Misdirect {
        /// Index into the scenario's `rules`.
        rule: usize,
        /// The wrong port.
        port: u32,
    },
    /// Tunnel matched packets to a colluding switch.
    Detour {
        /// Index into the scenario's `rules`.
        rule: usize,
        /// The colluding switch.
        partner: usize,
    },
}

impl FaultSpecDef {
    /// The rule index this fault applies to.
    pub fn rule(&self) -> usize {
        match self {
            Self::Drop { rule }
            | Self::Modify { rule, .. }
            | Self::Misdirect { rule, .. }
            | Self::Detour { rule, .. } => *rule,
        }
    }
}

/// Optional non-persistent activation for a fault, by fault index; in
/// JSON, an object tagged by `mode` (`intermittent` or `targeting`).
#[derive(Debug, Clone)]
pub enum ActivationSpec {
    /// Active only during a window of each period.
    Intermittent {
        /// Index into `faults`.
        fault: usize,
        /// Period in milliseconds.
        period_ms: u64,
        /// Active window in milliseconds.
        active_ms: u64,
    },
    /// Active only for headers matching the pattern.
    Targeting {
        /// Index into `faults`.
        fault: usize,
        /// Victim ternary pattern.
        pattern: String,
    },
}

/// A complete scenario.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Free-form description (empty when omitted).
    pub description: String,
    /// The topology.
    pub topology: TopologySpec,
    /// Flow rules.
    pub rules: Vec<RuleSpec>,
    /// Injected faults (empty = healthy network; empty when omitted).
    pub faults: Vec<FaultSpecDef>,
    /// Activation overrides for faults (default: persistent; empty when
    /// omitted).
    pub activations: Vec<ActivationSpec>,
}

impl ScenarioSpec {
    /// Parses a scenario from JSON text.
    ///
    /// The format is strict. `description`, `faults` and `activations`
    /// (and a rule's `set_field` and `priority`) may be omitted, but an
    /// unknown key, an unknown `type`/`kind`/`mode` tag, or an integer
    /// that is negative, fractional or too large for its field is an
    /// error naming the key path, e.g. `rules[3].priorty: unknown key`.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Io`] on malformed JSON (naming the byte
    /// offset) and [`SpecError::Invalid`] on a well-formed document that
    /// is not a scenario.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        Self::decode(&json::parse(text).map_err(SpecError::Io)?, "")
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        self.encode().to_pretty()
    }

    /// Builds the simulated network and injects the faults. Returns the
    /// network plus the entry id of each rule (same order as `rules`).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] when indices are out of range,
    /// patterns fail to parse, a set field's width differs from its
    /// match, the network rejects a rule (e.g. a match width differs from
    /// the earlier rules'), a forward target is not adjacent, two faults
    /// name one rule, or an activation names a missing fault, a fault
    /// that already has one, or a time too large to count in nanoseconds.
    pub fn build(&self) -> Result<(Network, Vec<EntryId>), SpecError> {
        let mut topo = Topology::new(self.topology.switches);
        for &(a, b) in &self.topology.links {
            if a >= self.topology.switches || b >= self.topology.switches {
                return Err(SpecError::Invalid(format!("link ({a},{b}) out of range")));
            }
            topo.add_link(SwitchId(a), SwitchId(b));
        }
        let mut net = Network::new(topo);
        let mut entries = Vec::with_capacity(self.rules.len());
        for (i, rule) in self.rules.iter().enumerate() {
            let m: Ternary = rule
                .match_field
                .parse()
                .map_err(|e| SpecError::Invalid(format!("rule {i} match: {e}")))?;
            let action = match &rule.action {
                ActionSpec::Forward { to } => {
                    let port = net
                        .topology()
                        .port_towards(SwitchId(rule.switch), SwitchId(*to))
                        .ok_or_else(|| {
                            SpecError::Invalid(format!(
                                "rule {i}: switch {} is not adjacent to {}",
                                rule.switch, to
                            ))
                        })?;
                    Action::Output(port)
                }
                ActionSpec::HostPort { port } => Action::Output(PortId(*port)),
                ActionSpec::Drop => Action::Drop,
                ActionSpec::Controller => Action::ToController,
            };
            let mut entry = FlowEntry::new(m, action).with_priority(rule.priority);
            if let Some(sf) = &rule.set_field {
                let sf: Ternary = sf
                    .parse()
                    .map_err(|e| SpecError::Invalid(format!("rule {i} set field: {e}")))?;
                if sf.len() != m.len() {
                    return Err(SpecError::Invalid(format!(
                        "rule {i} set field is {} bits but its match is {}",
                        sf.len(),
                        m.len()
                    )));
                }
                entry = entry.with_set_field(sf);
            }
            let id = net
                .install(SwitchId(rule.switch), TableId(0), entry)
                .map_err(|e| SpecError::Invalid(format!("rule {i}: {e}")))?;
            entries.push(id);
        }
        let mut activations: Vec<Option<Activation>> = vec![None; self.faults.len()];
        for (ai, act) in self.activations.iter().enumerate() {
            let bad = |m: String| SpecError::Invalid(format!("activation {ai}: {m}"));
            let (fault, activation) = match act {
                ActivationSpec::Intermittent {
                    fault,
                    period_ms,
                    active_ms,
                } => {
                    let ns = |what: &str, ms: u64| {
                        ms.checked_mul(1_000_000)
                            .ok_or_else(|| bad(format!("{what} of {ms} ms overflows nanoseconds")))
                    };
                    let timing = Activation::Intermittent {
                        period_ns: ns("period", *period_ms)?,
                        active_ns: ns("active window", *active_ms)?,
                    };
                    (*fault, timing)
                }
                ActivationSpec::Targeting { fault, pattern } => {
                    let victims = pattern.parse().map_err(|e| bad(format!("{e}")))?;
                    (*fault, Activation::Targeting(victims))
                }
            };
            match activations.get_mut(fault) {
                None => return Err(bad(format!("fault {fault} missing"))),
                Some(Some(_)) => {
                    return Err(bad(format!("fault {fault} already has an activation")))
                }
                Some(slot) => *slot = Some(activation),
            }
        }
        for (fi, (fault, activation)) in self.faults.iter().zip(activations).enumerate() {
            let rule = fault.rule();
            let &entry = entries
                .get(rule)
                .ok_or_else(|| SpecError::Invalid(format!("fault {fi}: rule {rule} missing")))?;
            if net.fault(entry).is_some() {
                return Err(SpecError::Invalid(format!(
                    "fault {fi}: rule {rule} already has a fault"
                )));
            }
            let kind = match fault {
                FaultSpecDef::Drop { .. } => FaultKind::Drop,
                FaultSpecDef::Modify { set_field, .. } => FaultKind::Modify(
                    set_field
                        .parse()
                        .map_err(|e| SpecError::Invalid(format!("fault {fi}: {e}")))?,
                ),
                FaultSpecDef::Misdirect { port, .. } => FaultKind::Misdirect(PortId(*port)),
                FaultSpecDef::Detour { partner, .. } => FaultKind::Detour {
                    partner: SwitchId(*partner),
                },
            };
            let mut spec = FaultSpec::new(kind);
            if let Some(activation) = activation {
                spec = spec.with_activation(activation);
            }
            net.inject_fault(entry, spec)
                .map_err(|e| SpecError::Invalid(format!("fault {fi}: {e}")))?;
        }
        Ok((net, entries))
    }
}

/// JSON encoding and strict decoding. `path` names the value being
/// decoded in error messages, e.g. `rules[3].priority`.
trait Json: Sized {
    fn encode(&self) -> Value;
    fn decode(v: &Value, path: &str) -> Result<Self, SpecError>;
}

macro_rules! json_uint {
    ($($t:ty),*) => {$(
        impl Json for $t {
            fn encode(&self) -> Value {
                Value::Number(self.to_string())
            }
            fn decode(v: &Value, path: &str) -> Result<Self, SpecError> {
                v.as_uint().map_err(|e| invalid(path, e))
            }
        }
    )*};
}
json_uint!(u16, u32, u64, usize);

impl Json for String {
    fn encode(&self) -> Value {
        self.as_str().into()
    }
    fn decode(v: &Value, path: &str) -> Result<Self, SpecError> {
        match v {
            Value::String(s) => Ok(s.clone()),
            _ => Err(invalid(path, "expected a string")),
        }
    }
}

impl<T: Json> Json for Vec<T> {
    fn encode(&self) -> Value {
        Value::Array(self.iter().map(Json::encode).collect())
    }
    fn decode(v: &Value, path: &str) -> Result<Self, SpecError> {
        let Value::Array(items) = v else {
            return Err(invalid(path, "expected an array"));
        };
        let item = |(i, v)| T::decode(v, &format!("{path}[{i}]"));
        items.iter().enumerate().map(item).collect()
    }
}

impl<T: Json> Json for Option<T> {
    fn encode(&self) -> Value {
        self.as_ref().map_or(Value::Null, Json::encode)
    }
    fn decode(v: &Value, path: &str) -> Result<Self, SpecError> {
        T::decode(v, path).map(Some)
    }
}

impl Json for (usize, usize) {
    fn encode(&self) -> Value {
        Value::Array(vec![self.0.encode(), self.1.encode()])
    }
    fn decode(v: &Value, path: &str) -> Result<Self, SpecError> {
        match Vec::decode(v, path)?[..] {
            [a, b] => Ok((a, b)),
            _ => Err(invalid(path, "expected a [switch, switch] pair")),
        }
    }
}

/// Implements [`Json`] for a struct, like a serde derive: fields in
/// declaration order, each decoded as `req` (must be present) or `opt`
/// (default when absent). A field that encodes to `null` (a `None`) is
/// omitted.
macro_rules! json_struct {
    ($ty:ident { $($field:ident $mode:ident),* }) => {
        impl Json for $ty {
            fn encode(&self) -> Value {
                let fields = [$((stringify!($field), self.$field.encode())),*];
                Value::object(fields.into_iter().filter(|(_, v)| *v != Value::Null))
            }
            fn decode(v: &Value, path: &str) -> Result<Self, SpecError> {
                let mut f = Fields::new(v, path)?;
                let decoded = Self { $($field: f.$mode(stringify!($field))?),* };
                f.finish(decoded)
            }
        }
    };
}

json_struct!(ScenarioSpec { description opt, topology req, rules req, faults opt, activations opt });
json_struct!(TopologySpec { switches req, links req });
json_struct!(RuleSpec { switch req, match_field req, set_field opt, action req, priority opt });

/// Implements [`Json`] for an enum of struct variants as an object whose
/// first key, `$key`, holds the variant's tag, followed by its fields.
macro_rules! json_tagged {
    ($ty:ident by $key:literal { $($variant:ident $tag:literal { $($field:ident),* }),* }) => {
        impl Json for $ty {
            fn encode(&self) -> Value {
                match self {
                    $(Self::$variant { $($field),* } => {
                        let fields = [$((stringify!($field), $field.encode())),*];
                        Value::object([($key, Value::from($tag))].into_iter().chain(fields))
                    })*
                }
            }
            fn decode(v: &Value, path: &str) -> Result<Self, SpecError> {
                let mut f = Fields::new(v, path)?;
                let decoded = match f.req::<String>($key)?.as_str() {
                    $($tag => Self::$variant { $($field: f.req(stringify!($field))?),* },)*
                    other => {
                        return Err(invalid(&f.key_path($key), format!("unknown tag {other:?}")))
                    }
                };
                f.finish(decoded)
            }
        }
    };
}

json_tagged!(ActionSpec by "type" {
    Forward "forward" { to },
    HostPort "host_port" { port },
    Drop "drop" {},
    Controller "controller" {}
});
json_tagged!(FaultSpecDef by "kind" {
    Drop "drop" { rule },
    Modify "modify" { rule, set_field },
    Misdirect "misdirect" { rule, port },
    Detour "detour" { rule, partner }
});
json_tagged!(ActivationSpec by "mode" {
    Intermittent "intermittent" { fault, period_ms, active_ms },
    Targeting "targeting" { fault, pattern }
});

/// The fields of one JSON object being decoded. Each read marks its key
/// as used; [`Fields::finish`] rejects any key left over.
struct Fields<'a> {
    path: String,
    fields: &'a [(String, Value)],
    used: Vec<bool>,
}

impl<'a> Fields<'a> {
    fn new(v: &'a Value, path: &str) -> Result<Self, SpecError> {
        let Value::Object(fields) = v else {
            return Err(invalid(path, "expected an object"));
        };
        let used = vec![false; fields.len()];
        Ok(Self {
            path: path.to_owned(),
            fields,
            used,
        })
    }

    fn key_path(&self, key: &str) -> String {
        match self.path.as_str() {
            "" => key.to_owned(),
            path => format!("{path}.{key}"),
        }
    }

    /// The value under `key`, or `None` when the key is absent.
    fn get<T: Json>(&mut self, key: &str) -> Result<Option<T>, SpecError> {
        let Some(i) = self.fields.iter().position(|(k, _)| k == key) else {
            return Ok(None);
        };
        self.used[i] = true;
        T::decode(&self.fields[i].1, &self.key_path(key)).map(Some)
    }

    fn req<T: Json>(&mut self, key: &str) -> Result<T, SpecError> {
        let value = self.get(key)?;
        value.ok_or_else(|| invalid(&self.key_path(key), "missing key"))
    }

    fn opt<T: Json + Default>(&mut self, key: &str) -> Result<T, SpecError> {
        Ok(self.get(key)?.unwrap_or_default())
    }

    fn finish<T>(self, decoded: T) -> Result<T, SpecError> {
        match self.used.iter().position(|used| !used) {
            Some(i) => Err(invalid(&self.key_path(&self.fields[i].0), "unknown key")),
            None => Ok(decoded),
        }
    }
}

fn invalid(path: &str, message: impl std::fmt::Display) -> SpecError {
    let path = if path.is_empty() { "scenario" } else { path };
    SpecError::Invalid(format!("{path}: {message}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdnprobe_dataplane::Outcome;
    use sdnprobe_headerspace::Header;

    fn sample() -> ScenarioSpec {
        ScenarioSpec {
            description: "two-switch line".into(),
            topology: TopologySpec {
                switches: 2,
                links: vec![(0, 1)],
            },
            rules: vec![
                RuleSpec {
                    switch: 0,
                    match_field: "00xxxxxx".into(),
                    set_field: None,
                    action: ActionSpec::Forward { to: 1 },
                    priority: 0,
                },
                RuleSpec {
                    switch: 1,
                    match_field: "00xxxxxx".into(),
                    set_field: None,
                    action: ActionSpec::HostPort { port: 40 },
                    priority: 0,
                },
            ],
            faults: vec![],
            activations: vec![],
        }
    }

    #[test]
    fn json_round_trip() {
        let spec = sample();
        let json = spec.to_json();
        let back = ScenarioSpec::from_json(&json).unwrap();
        assert_eq!(back.rules.len(), 2);
        assert_eq!(back.topology.switches, 2);
    }

    #[test]
    fn build_produces_working_network() {
        let (net, entries) = sample().build().unwrap();
        assert_eq!(entries.len(), 2);
        let trace = net.inject(SwitchId(0), Header::new(0, 8));
        assert!(matches!(trace.outcome, Outcome::LeftNetwork { .. }));
    }

    #[test]
    fn faults_and_activations_apply() {
        let mut spec = sample();
        spec.faults.push(FaultSpecDef::Drop { rule: 1 });
        spec.activations.push(ActivationSpec::Targeting {
            fault: 0,
            pattern: "00000000".into(),
        });
        let (net, entries) = spec.build().unwrap();
        assert!(net.fault(entries[1]).is_some());
        // Only the targeted header dies.
        assert!(
            net.inject(SwitchId(0), Header::new(0, 8))
                .observation()
                .is_none()
                || matches!(
                    net.inject(SwitchId(0), Header::new(0, 8)).outcome,
                    Outcome::Dropped { .. }
                )
        );
        assert!(matches!(
            net.inject(SwitchId(0), Header::new(0b100, 8)).outcome,
            Outcome::LeftNetwork { .. }
        ));
    }

    /// Asserts that the sample with one drop fault and `activations`
    /// fails to build with exactly `reason`.
    fn assert_activations_rejected(activations: Vec<ActivationSpec>, reason: &str) {
        let mut spec = sample();
        spec.faults.push(FaultSpecDef::Drop { rule: 1 });
        spec.activations = activations;
        let err = spec.build().unwrap_err().to_string();
        assert_eq!(err, format!("invalid scenario: {reason}"));
    }

    #[test]
    fn activation_for_a_missing_fault_is_rejected() {
        let act = ActivationSpec::Targeting {
            fault: 7,
            pattern: "00000000".into(),
        };
        assert_activations_rejected(vec![act], "activation 0: fault 7 missing");
    }

    #[test]
    fn second_activation_for_a_fault_is_rejected() {
        let intermittent = ActivationSpec::Intermittent {
            fault: 0,
            period_ms: 10,
            active_ms: 5,
        };
        let targeting = ActivationSpec::Targeting {
            fault: 0,
            pattern: "00000000".into(),
        };
        assert_activations_rejected(
            vec![intermittent, targeting],
            "activation 1: fault 0 already has an activation",
        );
    }

    #[test]
    fn second_fault_on_a_rule_is_rejected() {
        let mut spec = sample();
        spec.faults.push(FaultSpecDef::Drop { rule: 1 });
        spec.faults
            .push(FaultSpecDef::Misdirect { rule: 1, port: 7 });
        let err = spec.build().unwrap_err().to_string();
        assert_eq!(err, "invalid scenario: fault 1: rule 1 already has a fault");
    }

    #[test]
    fn overflowing_period_is_rejected() {
        let act = ActivationSpec::Intermittent {
            fault: 0,
            period_ms: 1 << 63,
            active_ms: 5,
        };
        assert_activations_rejected(
            vec![act],
            "activation 0: period of 9223372036854775808 ms overflows nanoseconds",
        );
    }

    #[test]
    fn mixed_widths_are_an_invalid_scenario_not_a_panic() {
        let mut mixed = sample();
        mixed.rules.push(RuleSpec {
            match_field: "01xxxxxxxxxxxxxx".into(),
            ..mixed.rules[0].clone()
        });
        let err = mixed.build().unwrap_err();
        assert!(
            matches!(&err, SpecError::Invalid(m) if m.contains("16 bits")),
            "{err}"
        );
        let lines = crate::commands::detect(&mixed, false, 1, 7, None, Default::default());
        assert!(matches!(lines, Err(SpecError::Invalid(_))));

        // A width that differs across switches is rejected as well.
        let mut cross = sample();
        cross.rules[1].match_field = "00xxxxxxxxxxxxxx".into();
        assert_ne!(cross.rules[0].switch, cross.rules[1].switch);
        assert!(matches!(cross.build(), Err(SpecError::Invalid(_))));

        let mut set = sample();
        set.rules[0].set_field = Some("1xxxxxxxxxxxxxxx".into());
        assert!(matches!(set.build(), Err(SpecError::Invalid(_))));
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut bad = sample();
        bad.topology.links.push((0, 9));
        assert!(bad.build().is_err());

        let mut bad = sample();
        bad.rules[0].match_field = "01q".into();
        assert!(bad.build().is_err());

        let mut bad = sample();
        bad.rules[0].action = ActionSpec::Forward { to: 0 };
        assert!(bad.build().is_err(), "not adjacent to itself");

        let mut bad = sample();
        bad.faults.push(FaultSpecDef::Drop { rule: 99 });
        assert!(bad.build().is_err());

        assert!(ScenarioSpec::from_json("{not json").is_err());
    }

    /// Asserts that loading the sample scenario with the first `from` in
    /// its JSON replaced by `to` fails with a message ending in `reason`.
    fn assert_rejects(from: &str, to: &str, reason: &str) {
        let text = sample().to_json().replacen(from, to, 1);
        let err = ScenarioSpec::from_json(&text).unwrap_err().to_string();
        assert!(err.ends_with(reason), "{err:?} should end with {reason:?}");
    }

    #[test]
    fn repository_scenarios_round_trip_byte_for_byte() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
        for name in ["campus", "chaos", "figure3", "synthetic"] {
            let text = std::fs::read_to_string(dir.join(format!("{name}.json"))).unwrap();
            let spec = ScenarioSpec::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(spec.to_json(), text.trim_end_matches('\n'), "{name}");
        }
    }

    #[test]
    fn unknown_keys_are_rejected() {
        assert_rejects(
            r#""priority""#,
            r#""priorty""#,
            "rules[0].priorty: unknown key",
        );
        assert_rejects(
            "{",
            r#"{"extra": 1, "#,
            "invalid scenario: extra: unknown key",
        );
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let (key, twice) = (r#""switches": 2"#, r#""switches": 2, "switches": 3"#);
        let at = sample().to_json().find(key).unwrap() + key.len() + 2;
        assert_rejects(
            key,
            twice,
            &format!(r#"duplicate key "switches" at byte {at}"#),
        );
    }

    #[test]
    fn unknown_tags_are_rejected() {
        let (faults, activations) = (r#""faults": []"#, r#""activations": []"#);
        let reason = r#"rules[0].action.type: unknown tag "teleport""#;
        assert_rejects(r#""forward""#, r#""teleport""#, reason);
        let melt = r#""faults": [{"kind": "melt", "rule": 0}]"#;
        assert_rejects(faults, melt, r#"faults[0].kind: unknown tag "melt""#);
        let x = r#""activations": [{"mode": "x"}]"#;
        assert_rejects(activations, x, r#"activations[0].mode: unknown tag "x""#);
    }

    #[test]
    fn bad_integers_are_rejected() {
        for (raw, why) in [
            ("-1", "negative integer"),
            ("1.5", "expected an integer, found a fraction or exponent"),
            ("70000", "integer out of range"),
        ] {
            let bad = format!(r#""priority": {raw}"#);
            assert_rejects(
                r#""priority": 0"#,
                &bad,
                &format!("rules[0].priority: {why}"),
            );
        }
    }

    #[test]
    fn trailing_text_is_rejected() {
        let at = sample().to_json().len() + 1;
        assert_rejects(
            "\n}",
            "\n}\n{}",
            &format!("trailing characters after the document at byte {at}"),
        );
    }

    #[test]
    fn deep_nesting_is_rejected() {
        let (description, depth) = (r#""two-switch line""#, json::MAX_DEPTH + 1);
        let deep = "[".repeat(depth) + &"]".repeat(depth);
        // The root object is the first level.
        let at = sample().to_json().find(description).unwrap() + json::MAX_DEPTH - 1;
        assert_rejects(
            description,
            &deep,
            &format!("nesting deeper than 128 levels at byte {at}"),
        );
    }
}
