//! The artifact layer: declare a struct's on-disk fields once, derive the
//! writer, the strict reader, the marker test, `load` and `write`.
//!
//! Every strict JSON artifact of the workspace (the figure document
//! `results/<figure>.json`, `SLOW_QUERIES`, the cluster health
//! snapshot and the records nested inside them) is a
//! plain struct plus one [`json_fields!`] table
//! naming its fields in on-disk order. The table derives [`JsonField`] for
//! the struct; a top-level document adds [`artifact!`], which derives the
//! inherent `to_json` / `from_json` / `has_marker` / `load` / `write` and
//! calls the one hand-written part, `validate(&self)`, for cross-field
//! invariants.
//!
//! The derived reader is strict and reads the whole document before it
//! reports: every declared field must be present and well-typed, integers
//! reject fractional, non-finite and out-of-range numbers (negative ones,
//! for counts), and each problem is reported as `"<path>: <what>"`
//! (`servers[0].replies`, `retained[2].explain.hops[1].outcome`), joined
//! with `"; "`.
//!
//! [`json_fields!`]: crate::json_fields
//! [`artifact!`]: crate::artifact

use super::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// A value that can be a field of a JSON artifact.
pub trait JsonField: Sized {
    /// Serialize.
    fn to_field(&self) -> Json;

    /// Strictly parse the value found at `path` (`None`: the key is
    /// absent). Every problem is pushed onto `errs` as `"<path>: <what>"`;
    /// the result is `None` exactly when this call pushed at least one.
    fn from_field(value: Option<&Json>, path: &str, errs: &mut Vec<String>) -> Option<Self>;
}

/// `path` extended by the object member `key`.
fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

/// The last member name of `path`: what error messages call the field.
fn leaf(path: &str) -> &str {
    match path.rsplit('.').next() {
        Some(name) if !name.is_empty() => name,
        _ => "document",
    }
}

/// Record `"<path>: <problem> <field>"` and yield `None`.
fn reject<T>(errs: &mut Vec<String>, path: &str, problem: &str) -> Option<T> {
    let name = leaf(path);
    errs.push(if path.is_empty() {
        format!("{problem} {name}")
    } else {
        format!("{path}: {problem} {name}")
    });
    None
}

impl JsonField for f64 {
    fn to_field(&self) -> Json {
        Json::Num(*self)
    }

    /// Non-finite numbers are written as `null`, so they fail here too.
    fn from_field(value: Option<&Json>, path: &str, errs: &mut Vec<String>) -> Option<f64> {
        match value.and_then(Json::as_f64) {
            Some(v) if v.is_finite() => Some(v),
            _ => reject(errs, path, "missing or non-numeric"),
        }
    }
}

macro_rules! count_fields {
    ($($t:ty),*) => {$(
        impl JsonField for $t {
            fn to_field(&self) -> Json {
                Json::Num(*self as f64)
            }

            fn from_field(value: Option<&Json>, path: &str, errs: &mut Vec<String>) -> Option<$t> {
                let v = f64::from_field(value, path, errs)?;
                if v < <$t>::MIN as f64 || v.fract() != 0.0 || v > <$t>::MAX as f64 {
                    errs.push(format!(
                        "{path}: {} must be an integer in {}..={}, got {v}",
                        leaf(path),
                        <$t>::MIN,
                        <$t>::MAX
                    ));
                    return None;
                }
                Some(v as $t)
            }
        }
    )*};
}
count_fields!(u32, u64, usize, i64);

impl JsonField for bool {
    fn to_field(&self) -> Json {
        Json::Bool(*self)
    }

    fn from_field(value: Option<&Json>, path: &str, errs: &mut Vec<String>) -> Option<bool> {
        match value {
            Some(Json::Bool(b)) => Some(*b),
            _ => reject(errs, path, "missing or non-boolean"),
        }
    }
}

impl JsonField for String {
    fn to_field(&self) -> Json {
        Json::Str(self.clone())
    }

    fn from_field(value: Option<&Json>, path: &str, errs: &mut Vec<String>) -> Option<String> {
        match value.and_then(Json::as_str_val) {
            Some(s) => Some(s.to_string()),
            None => reject(errs, path, "missing or non-string"),
        }
    }
}

/// A nullable field: always written (`null` for `None`), and the key must
/// be present on read. A field that is *omitted* when empty is declared
/// with a trailing `?` in [`json_fields!`](crate::json_fields) instead.
impl<T: JsonField> JsonField for Option<T> {
    fn to_field(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_field)
    }

    fn from_field(value: Option<&Json>, path: &str, errs: &mut Vec<String>) -> Option<Option<T>> {
        match value {
            Some(Json::Null) => Some(None),
            _ => T::from_field(value, path, errs).map(Some),
        }
    }
}

impl<T: JsonField> JsonField for Vec<T> {
    fn to_field(&self) -> Json {
        Json::Arr(self.iter().map(T::to_field).collect())
    }

    fn from_field(value: Option<&Json>, path: &str, errs: &mut Vec<String>) -> Option<Vec<T>> {
        let Some(items) = value.and_then(Json::as_arr) else {
            return reject(errs, path, "missing or non-array");
        };
        // Parse every element before folding, so each bad one is reported.
        let parsed: Vec<Option<T>> = items
            .iter()
            .enumerate()
            .map(|(i, item)| T::from_field(Some(item), &format!("{path}[{i}]"), errs))
            .collect();
        parsed.into_iter().collect()
    }
}

/// Named values (a metrics snapshot's instruments): an object in key
/// order.
impl<T: JsonField> JsonField for BTreeMap<String, T> {
    fn to_field(&self) -> Json {
        Json::Obj(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_field()))
                .collect(),
        )
    }

    fn from_field(
        value: Option<&Json>,
        path: &str,
        errs: &mut Vec<String>,
    ) -> Option<BTreeMap<String, T>> {
        let Some(Json::Obj(pairs)) = value else {
            return reject(errs, path, "missing or non-object");
        };
        let clean = errs.len();
        let mut map = BTreeMap::new();
        for (key, item) in pairs {
            let at = join(path, key);
            if let Some(v) = T::from_field(Some(item), &at, errs) {
                if map.insert(key.clone(), v).is_some() {
                    errs.push(format!("{at}: duplicate key {key:?}"));
                }
            }
        }
        (errs.len() == clean).then_some(map)
    }
}

/// A count histogram (the trace report's hops → queries): `[key, count]`
/// pairs, keys strictly ascending.
impl JsonField for BTreeMap<usize, usize> {
    fn to_field(&self) -> Json {
        Json::Arr(
            self.iter()
                .map(|(k, n)| Json::Arr(vec![k.to_field(), n.to_field()]))
                .collect(),
        )
    }

    fn from_field(
        value: Option<&Json>,
        path: &str,
        errs: &mut Vec<String>,
    ) -> Option<BTreeMap<usize, usize>> {
        let Some(items) = value.and_then(Json::as_arr) else {
            return reject(errs, path, "missing or non-array");
        };
        let clean = errs.len();
        let mut map = BTreeMap::new();
        for (i, item) in items.iter().enumerate() {
            let at = format!("{path}[{i}]");
            let Some([k, n]) = item.as_arr() else {
                errs.push(format!("{at}: expected a [key, count] pair"));
                continue;
            };
            let k = usize::from_field(Some(k), &format!("{at}[0]"), errs);
            let n = usize::from_field(Some(n), &format!("{at}[1]"), errs);
            if let (Some(k), Some(n)) = (k, n) {
                if map.last_key_value().is_some_and(|(&last, _)| last >= k) {
                    errs.push(format!("{at}: key {k} does not ascend"));
                }
                map.insert(k, n);
            }
        }
        (errs.len() == clean).then_some(map)
    }
}

/// Reader behind [`json_labels!`](crate::json_labels): a string that
/// `parse` must recognise.
pub fn label_at<T>(
    value: Option<&Json>,
    path: &str,
    errs: &mut Vec<String>,
    parse: fn(&str) -> Option<T>,
) -> Option<T> {
    let Some(label) = value.and_then(Json::as_str_val) else {
        return reject(errs, path, "missing or non-string");
    };
    let parsed = parse(label);
    if parsed.is_none() {
        errs.push(format!("{path}: unknown {} {label:?}", leaf(path)));
    }
    parsed
}

/// Derive [`JsonField`] for enums that are stored as their stable label:
/// each type must offer `fn as_str(self) -> &'static str` and
/// `fn parse(&str) -> Option<Self>`.
#[macro_export]
macro_rules! json_labels {
    ($($t:ty),* $(,)?) => {$(
        impl $crate::json::JsonField for $t {
            fn to_field(&self) -> $crate::json::Json {
                $crate::json::Json::str(self.as_str())
            }

            fn from_field(
                value: Option<&$crate::json::Json>,
                path: &str,
                errs: &mut Vec<String>,
            ) -> Option<Self> {
                $crate::json::label_at(value, path, errs, <$t>::parse)
            }
        }
    )*};
}

/// The object at `path`, or a recorded error.
pub fn object_at<'a>(
    value: Option<&'a Json>,
    path: &str,
    errs: &mut Vec<String>,
) -> Option<&'a Json> {
    match value {
        Some(obj @ Json::Obj(_)) => Some(obj),
        _ => reject(errs, path, "missing or non-object"),
    }
}

/// Read the required member `key` of the object at `path`.
pub fn member<T: JsonField>(
    obj: &Json,
    path: &str,
    key: &str,
    errs: &mut Vec<String>,
) -> Option<T> {
    T::from_field(obj.get(key), &join(path, key), errs)
}

/// Read a member that is omitted when empty: absent reads as the default,
/// present must be valid.
pub fn optional_member<T: JsonField + Default>(
    obj: &Json,
    path: &str,
    key: &str,
    errs: &mut Vec<String>,
) -> Option<T> {
    match obj.get(key) {
        None => Some(T::default()),
        found => T::from_field(found, &join(path, key), errs),
    }
}

/// Whether an omitted-when-empty field is empty (`None` or `[]`).
pub fn is_blank(value: &Json) -> bool {
    matches!(value, Json::Null) || matches!(value, Json::Arr(items) if items.is_empty())
}

/// Equality up to the float noise a hand-rounded document may carry.
fn close(a: &Json, b: &Json) -> bool {
    match (a, b) {
        (Json::Num(x), Json::Num(y)) => (x - y).abs() <= 1e-6 * y.abs().max(1.0),
        (Json::Arr(x), Json::Arr(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| close(p, q))
        }
        (Json::Obj(x), Json::Obj(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((k, p), (l, q))| k == l && close(p, q))
        }
        _ => a == b,
    }
}

/// Check a computed member (`"key" = expr` in the field table): the
/// stored value must be present and agree with the value recomputed from
/// the fields just read.
pub fn verify_computed(
    obj: &Json,
    path: &str,
    key: &str,
    recomputed: &Json,
    errs: &mut Vec<String>,
) {
    let at = join(path, key);
    match obj.get(key) {
        None => errs.push(format!("{at}: missing {key}")),
        Some(stored) if !close(stored, recomputed) => errs.push(format!(
            "{at}: {stored} inconsistent with the rest of the document (recomputed {recomputed})"
        )),
        Some(_) => {}
    }
}

/// Derive [`JsonField`] for a struct from its field table, in on-disk
/// order. Entry forms:
///
/// * `name` — required field stored under its own name;
/// * `name as "key"` — required field stored under another key;
/// * `name?` — an `Option` or `Vec` field omitted when `None` / empty;
/// * `"key" = expr` — a computed member (a marker constant, or data
///   derived from the other fields): written from `expr`, and on read the
///   stored value must agree with `expr` recomputed from the parsed
///   struct. `expr` names the struct through the binder given as
///   `json_fields!(Type as binder { … })`.
#[macro_export]
macro_rules! json_fields {
    ($ty:ident { $($body:tt)* }) => {
        $crate::json_fields!($ty as _this { $($body)* });
    };
    ($ty:ident as $this:ident { $($body:tt)* }) => {
        impl $crate::json::JsonField for $ty {
            // One push per table entry; `?` entries push conditionally.
            #[allow(clippy::vec_init_then_push)]
            fn to_field(&self) -> $crate::json::Json {
                let $this = self;
                let mut pairs: Vec<(String, $crate::json::Json)> = Vec::new();
                $crate::json_fields!(@write $this pairs $($body)* ,);
                $crate::json::Json::Obj(pairs)
            }

            fn from_field(
                value: Option<&$crate::json::Json>,
                path: &str,
                errs: &mut Vec<String>,
            ) -> Option<Self> {
                let obj = $crate::json::object_at(value, path, errs)?;
                $crate::json_fields!(@read $ty $this obj path errs {} {} {} $($body)* ,)
            }
        }
    };

    // Writer: one push per entry, in declaration order.
    (@write $this:ident $pairs:ident $(,)?) => {};
    (@write $this:ident $pairs:ident $key:literal = $value:expr, $($rest:tt)*) => {
        $pairs.push(($key.to_string(), $crate::json::JsonField::to_field(&$value)));
        $crate::json_fields!(@write $this $pairs $($rest)*);
    };
    (@write $this:ident $pairs:ident $name:ident ?, $($rest:tt)*) => {
        let value = $crate::json::JsonField::to_field(&$this.$name);
        if !$crate::json::is_blank(&value) {
            $pairs.push((stringify!($name).to_string(), value));
        }
        $crate::json_fields!(@write $this $pairs $($rest)*);
    };
    (@write $this:ident $pairs:ident $name:ident as $key:literal, $($rest:tt)*) => {
        $pairs.push(($key.to_string(), $crate::json::JsonField::to_field(&$this.$name)));
        $crate::json_fields!(@write $this $pairs $($rest)*);
    };
    (@write $this:ident $pairs:ident $name:ident, $($rest:tt)*) => {
        $pairs.push((
            stringify!($name).to_string(),
            $crate::json::JsonField::to_field(&$this.$name),
        ));
        $crate::json_fields!(@write $this $pairs $($rest)*);
    };

    // Reader: every member is read into a local first ({reads}), so one
    // pass reports every offending path; then the struct is assembled
    // ({fields}) and its computed members are checked ({checks}).
    (@read $ty:ident $this:ident $obj:ident $path:ident $errs:ident
        {$($reads:tt)*} {$($fields:tt)*} {$($checks:tt)*} $(,)?) => {{
        $($reads)*
        let parsed = $ty { $($fields)* };
        let clean = $errs.len();
        {
            let $this = &parsed;
            $($checks)*
        }
        ($errs.len() == clean).then_some(parsed)
    }};
    (@read $ty:ident $this:ident $obj:ident $path:ident $errs:ident
        {$($reads:tt)*} {$($fields:tt)*} {$($checks:tt)*}
        $key:literal = $value:expr, $($rest:tt)*) => {
        $crate::json_fields!(@read $ty $this $obj $path $errs
            {$($reads)*} {$($fields)*}
            {$($checks)* $crate::json::verify_computed(
                $obj, $path, $key, &$crate::json::JsonField::to_field(&$value), $errs);}
            $($rest)*)
    };
    (@read $ty:ident $this:ident $obj:ident $path:ident $errs:ident
        {$($reads:tt)*} {$($fields:tt)*} {$($checks:tt)*}
        $name:ident ?, $($rest:tt)*) => {
        $crate::json_fields!(@read $ty $this $obj $path $errs
            {$($reads)* let $name =
                $crate::json::optional_member($obj, $path, stringify!($name), $errs);}
            {$($fields)* $name: $name?,} {$($checks)*} $($rest)*)
    };
    (@read $ty:ident $this:ident $obj:ident $path:ident $errs:ident
        {$($reads:tt)*} {$($fields:tt)*} {$($checks:tt)*}
        $name:ident as $key:literal, $($rest:tt)*) => {
        $crate::json_fields!(@read $ty $this $obj $path $errs
            {$($reads)* let $name = $crate::json::member($obj, $path, $key, $errs);}
            {$($fields)* $name: $name?,} {$($checks)*} $($rest)*)
    };
    (@read $ty:ident $this:ident $obj:ident $path:ident $errs:ident
        {$($reads:tt)*} {$($fields:tt)*} {$($checks:tt)*}
        $name:ident, $($rest:tt)*) => {
        $crate::json_fields!(@read $ty $this $obj $path $errs
            {$($reads)* let $name =
                $crate::json::member($obj, $path, stringify!($name), $errs);}
            {$($fields)* $name: $name?,} {$($checks)*} $($rest)*)
    };
}

/// Strictly parse `doc` as a bare `T` (no marker, no `validate`).
pub fn read<T: JsonField>(doc: &Json) -> Result<T, String> {
    let mut errs = Vec::new();
    match T::from_field(Some(doc), "", &mut errs) {
        Some(value) => Ok(value),
        None => Err(errs.join("; ")),
    }
}

/// Reader behind [`artifact!`](crate::artifact): marker and version
/// first, then every declared field, then the artifact's `validate`.
pub fn read_document<T: JsonField>(
    doc: &Json,
    marker: &str,
    version: u64,
    validate: fn(&T) -> Result<(), String>,
) -> Result<T, String> {
    match doc.get(marker).and_then(Json::as_f64) {
        None => return Err(format!("missing {marker} marker")),
        Some(v) if v != version as f64 => {
            return Err(format!("unknown {marker} {v} (this build reads {version})"))
        }
        Some(_) => {}
    }
    let value: T = read(doc)?;
    validate(&value)?;
    Ok(value)
}

/// Read and parse the JSON file at `path`; errors carry the path.
pub fn load_json(path: &Path) -> Result<Json, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&body).map_err(|e| format!("{}: {e}", path.display()))
}

/// Pretty-print `doc` to `path`, creating parent directories.
pub fn write_json(doc: &Json, path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.to_string_pretty())
}

/// Make a struct with a [`json_fields!`](crate::json_fields) table a
/// top-level document: `artifact!(Type, "marker_key", VERSION)` derives
/// the inherent `MARKER`, `has_marker`, `to_json`, `from_json`, `load` and
/// `write`. The type supplies `fn validate(&self) -> Result<(), String>`
/// for its cross-field invariants.
#[macro_export]
macro_rules! artifact {
    ($ty:ident, $marker:expr, $version:expr) => {
        impl $ty {
            /// The key that identifies this artifact (its value is the
            /// schema version).
            pub const MARKER: &'static str = $marker;

            /// Whether `doc` claims to be this artifact (any version):
            /// routes `roads-inspect check` between schemas.
            pub fn has_marker(doc: &$crate::json::Json) -> bool {
                doc.get(Self::MARKER).is_some()
            }

            /// Serialize to the on-disk document shape.
            pub fn to_json(&self) -> $crate::json::Json {
                $crate::json::JsonField::to_field(self)
            }

            /// Strict parse: marker and version, then every declared
            /// field (errors name each offending path), then `validate`.
            pub fn from_json(doc: &$crate::json::Json) -> Result<Self, String> {
                $crate::json::read_document(doc, Self::MARKER, $version, Self::validate)
            }

            /// Load and validate the document at `path`.
            pub fn load(path: &std::path::Path) -> Result<Self, String> {
                let doc = $crate::json::load_json(path)?;
                Self::from_json(&doc).map_err(|e| format!("{}: {e}", path.display()))
            }

            /// Write the pretty-printed document, creating parent
            /// directories.
            pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
                $crate::json::write_json(&self.to_json(), path)
            }
        }
    };
}
