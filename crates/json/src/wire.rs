//! The declarative wire codec.  A protocol record is declared once, inside
//! [`wire!`](crate::wire!), and its [`ToJson`] / [`FromJson`] pair follows
//! from the declaration; the functions here are what the expansion calls,
//! and they word every member error the one way the protocol words it.

use crate::{FromJson, Json, JsonError, Result, ToJson};

/// The members of an object under construction, in wire order.
pub type Members = Vec<(String, Json)>;

/// How a required member that is absent is refused.
pub fn missing(key: &str) -> JsonError {
    JsonError::new(format!("missing field '{key}'"))
}

/// How a member whose value does not decode is refused.
pub fn in_field(key: &str, e: JsonError) -> JsonError {
    JsonError::new(format!("field '{key}': {e}"))
}

/// A record member, by its type.  A plain value is required and always
/// written.  An `Option` is written only when `Some`, and absent reads as
/// `None`; a present one must decode, so `null` is refused.
pub trait Member: Sized {
    /// What the member's value reads as.
    type Value: FromJson;

    /// Appends the member to `out` under `key`, unless there is nothing to
    /// write.
    fn put(&self, key: &str, out: &mut Members);

    /// The member, from what the walk found under `key`: nothing, or the
    /// first value read or refused.  A `bare` member's decode error is
    /// passed on as it is, not prefixed with `key`.
    fn finish(slot: Option<Result<Self::Value>>, key: &str, bare: bool) -> Result<Self>;
}

impl<T: ToJson + FromJson> Member for T {
    type Value = T;

    fn put(&self, key: &str, out: &mut Members) {
        out.push((key.to_string(), self.to_json()));
    }

    fn finish(slot: Option<Result<T>>, key: &str, bare: bool) -> Result<T> {
        slot.ok_or_else(|| missing(key))?
            .map_err(|e| if bare { e } else { in_field(key, e) })
    }
}

impl<T: ToJson + FromJson> Member for Option<T> {
    type Value = T;

    fn put(&self, key: &str, out: &mut Members) {
        if let Some(value) = self {
            value.put(key, out);
        }
    }

    fn finish(slot: Option<Result<T>>, key: &str, bare: bool) -> Result<Option<T>> {
        slot.map(|value| value.map_err(|e| if bare { e } else { in_field(key, e) }))
            .transpose()
    }
}

/// Appends the members of a record to `out`: a flattened member.
pub fn put_flat<T: ToJson>(value: &T, out: &mut Members) {
    if let Json::Obj(members) = value.to_json() {
        out.extend(members);
    }
}

/// Declares a protocol type and derives its [`ToJson`](crate::ToJson) /
/// [`FromJson`](crate::FromJson) pair from the declaration.  Three forms:
///
/// * **Record** — `struct Name { field: Type, ... }`: one JSON object whose
///   members are the fields, named as the fields and in their order.
/// * **Tagged union** — `enum Name tagged "what" { Variant = "tag" { ... },
///   Unit = "tag", ... }`: an object whose `"type"` member, written first
///   and read wherever it stands, names the variant; the variant's fields
///   follow as a record's do.  An unknown tag is refused as `unknown <what>
///   type '<tag>'`.
/// * **Name enum** — `enum Name names "what" { Variant = "name", ... }`:
///   a string.  A non-string is refused as `expected a string for <what>`;
///   a name not listed goes to the optional `unknown: <fn(&str) ->
///   Result<Name, String>>;` clause (default: `unknown <Name> variant
///   '<name>'`).  An optional `fn getter;` clause also generates
///   `pub fn getter(&self) -> &'static str` returning the wire name.
///
/// A field is a [`Member`] by its type — required, or an `Option` that is
/// omitted when `None` — unless it says otherwise after its type:
///
/// * `= default` — absent or `null` reads as `default`, evaluated only
///   then; it may name a field declared before it;
/// * `[bare]` — a decode error is passed on without the `field '…': `
///   prefix;
/// * `[flat]` — a variant's only field, a record whose members are written
///   into, and read from, the variant's object;
/// * `[with codec]` — written by `codec::put(&value, &mut members)`, read
///   by `codec::claim(&mut slots, reader, key)` (as [`Reader::claim`](crate::Reader::claim), for
///   the keys it owns) and `codec::finish(slots)` over a `codec::Slots:
///   Default`; for what a declaration cannot state.
///
/// An object is read in one walk: the first member under a field's key is
/// read in place into the field's slot, any other only checked; then
/// the first field declared that is absent (`missing field '…'`) or did not
/// decode (`field '…': …`) is refused, unless a syntax error came first.
#[macro_export]
macro_rules! wire {
    (
        $(#[$attr:meta])*
        $vis:vis enum $name:ident names $what:literal {
            $( $(#[$vattr:meta])* $variant:ident = $wire:literal ),+ $(,)?
        }
        $(fn $getter:ident;)?
        $(unknown: $unknown:expr;)?
    ) => {
        $(#[$attr])*
        $vis enum $name {
            $( $(#[$vattr])* $variant ),+
        }

        impl $name {
            fn wire_name(&self) -> &'static str {
                match self {
                    $( $name::$variant => $wire, )+
                }
            }

            $(
                /// The wire name.
                pub fn $getter(&self) -> &'static str {
                    self.wire_name()
                }
            )?
        }

        impl $crate::ToJson for $name {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Str(self.wire_name().to_string())
            }
        }

        impl $crate::FromJson for $name {
            fn read(p: &mut $crate::Reader<'_>) -> $crate::Result<$name> {
                let name = <String as $crate::FromJson>::read(p).map_err(|_| {
                    $crate::JsonError::new(concat!("expected a string for ", $what))
                })?;
                match name.as_str() {
                    $( $wire => Ok($name::$variant), )+
                    other => {
                        let unknown: fn(&str) -> ::std::result::Result<$name, String> =
                            $crate::__wire_unknown!($name $(, $unknown)?);
                        unknown(other).map_err($crate::JsonError::new)
                    }
                }
            }
        }
    };

    (
        $(#[$attr:meta])*
        $vis:vis enum $name:ident tagged $what:literal {
            $(
                $(#[$vattr:meta])*
                $variant:ident = $tag:literal $({
                    $(
                        $(#[$fattr:meta])*
                        $field:ident : $fty:ty $([$($mode:tt)+])? $(= $default:expr)?
                    ),* $(,)?
                })?
            ),+ $(,)?
        }
    ) => {
        $(#[$attr])*
        $vis enum $name {
            $(
                $(#[$vattr])*
                $variant $({ $( $(#[$fattr])* $field: $fty ),* })?
            ),+
        }

        impl $crate::ToJson for $name {
            fn to_json(&self) -> $crate::Json {
                match self {
                    $(
                        $name::$variant $({ $($field),* })? => {
                            let mut members: $crate::wire::Members =
                                Vec::with_capacity(1 $($( + $crate::__wire_each!($field, 1) )*)?);
                            members.push(("type".to_string(), $crate::Json::Str($tag.to_string())));
                            $($( $crate::__wire_put!(members, $field $([$($mode)+])?); )*)?
                            $crate::Json::Obj(members)
                        }
                    )+
                }
            }
        }

        impl $crate::FromJson for $name {
            fn read(p: &mut $crate::Reader<'_>) -> $crate::Result<$name> {
                // The tag: the first `type` member, wherever it stands.
                let tag = <String as $crate::wire::Member>::finish(p.find("type")?, "type", false)?;
                match tag.as_str() {
                    $(
                        $tag => $crate::__wire_record!(p, $name::$variant $({
                            $( $field : $fty $([$($mode)+])? $(= $default)? ),*
                        })?),
                    )+
                    other => Err($crate::JsonError::new(format!(
                        concat!("unknown ", $what, " type '{}'"),
                        other
                    ))),
                }
            }
        }
    };

    (
        $(#[$attr:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$fattr:meta])*
                $fvis:vis $field:ident : $fty:ty $([$($mode:tt)+])? $(= $default:expr)?
            ),+ $(,)?
        }
    ) => {
        $(#[$attr])*
        $vis struct $name {
            $( $(#[$fattr])* $fvis $field: $fty ),+
        }

        impl $crate::ToJson for $name {
            fn to_json(&self) -> $crate::Json {
                let $name { $($field),+ } = self;
                let mut members: $crate::wire::Members =
                    Vec::with_capacity(0 $( + $crate::__wire_each!($field, 1) )+);
                $( $crate::__wire_put!(members, $field $([$($mode)+])?); )+
                $crate::Json::Obj(members)
            }
        }

        impl $crate::FromJson for $name {
            fn read(p: &mut $crate::Reader<'_>) -> $crate::Result<$name> {
                $crate::__wire_record!(p, $name {
                    $( $field : $fty $([$($mode)+])? $(= $default)? ),+
                })
            }
        }
    };
}

/// `$value`, once per `$field` of a repetition.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_each {
    ($field:ident, $value:expr) => {
        $value
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __wire_unknown {
    ($name:ident) => {
        |other| {
            Err(format!(
                concat!("unknown ", stringify!($name), " variant '{}'"),
                other
            ))
        }
    };
    ($name:ident, $unknown:expr) => {
        $unknown
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __wire_put {
    ($out:ident, $field:ident $([bare])?) => {
        $crate::wire::Member::put($field, stringify!($field), &mut $out)
    };
    ($out:ident, $field:ident [flat]) => {
        $crate::wire::put_flat($field, &mut $out)
    };
    ($out:ident, $field:ident [with $codec:ident]) => {
        $codec::put($field, &mut $out)
    };
}

/// Reads the object at the reader as `$ctor`, a struct or a variant: in
/// one walk, or as its only field's if that is `[flat]`.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_record {
    ($p:ident, $($ctor:ident)::+) => {{
        $p.fields(|_, _| Ok(false))?;
        Ok($($ctor)::+)
    }};
    ($p:ident, $($ctor:ident)::+ { $field:ident : $fty:ty [flat] }) => {
        Ok($($ctor)::+ { $field: <$fty as $crate::FromJson>::read($p)? })
    };
    ($p:ident, $($ctor:ident)::+ {
        $( $field:ident : $fty:ty $([$($mode:tt)+])? $(= $default:expr)? ),+
    }) => {{
        let mut slots = ($( $crate::__wire_each!($field, Default::default()), )+);
        $p.fields(|p, key| {
            let ($($field,)+) = &mut slots;
            $( $crate::__wire_claim!(p, key, $field $([$($mode)+])? $(= $default)?); )+
            Ok(false)
        })?;
        let ($($field,)+) = slots;
        $(
            let $field: $fty = $crate::__wire_finish!(
                $field, $fty $([$($mode)+])? $(= $default)?
            )?;
        )+
        Ok($($ctor)::+ { $($field),+ })
    }};
}

/// Reads a member into the field's slot if `key` is the field's.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_claim {
    ($p:ident, $key:ident, $field:ident $([bare])? $(= $default:expr)?) => {
        if $key == stringify!($field) {
            return $p.claim($field);
        }
    };
    ($p:ident, $key:ident, $field:ident [with $codec:ident]) => {
        if $codec::claim($field, $p, $key)? {
            return Ok(true);
        }
    };
}

/// Takes a field from its slot.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_finish {
    ($slot:ident, $ty:ty) => {
        <$ty as $crate::wire::Member>::finish($slot, stringify!($slot), false)
    };
    ($slot:ident, $ty:ty [bare]) => {
        <$ty as $crate::wire::Member>::finish($slot, stringify!($slot), true)
    };
    ($slot:ident, $ty:ty [with $codec:ident]) => {
        $codec::finish($slot)
    };
    // Absent or `null`: the default, evaluated only then.
    ($slot:ident, $ty:ty = $default:expr) => {
        $slot
            .transpose()
            .map(|value: Option<Option<$ty>>| value.flatten().unwrap_or_else(|| $default))
            .map_err(|e| $crate::wire::in_field(stringify!($slot), e))
    };
}
