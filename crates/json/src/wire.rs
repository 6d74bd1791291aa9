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

fn decode<T: FromJson>(value: &Json, key: &str, bare: bool) -> Result<T> {
    T::from_json(value).map_err(|e| if bare { e } else { in_field(key, e) })
}

/// A record member, by its type.  A plain value is required and always
/// written.  An `Option` is written only when `Some`, and absent reads as
/// `None`; a present one must decode, so `null` is refused.
pub trait Member: Sized {
    /// Appends the member to `out` under `key`, unless there is nothing to
    /// write.
    fn put(&self, key: &str, out: &mut Members);

    /// Decodes the member from the value found under `key` (`None`: the
    /// member is absent).  A `bare` member's decode error is passed on as
    /// it is, not prefixed with `key`.
    fn take(value: Option<&Json>, key: &str, bare: bool) -> Result<Self>;
}

impl<T: ToJson + FromJson> Member for T {
    fn put(&self, key: &str, out: &mut Members) {
        out.push((key.to_string(), self.to_json()));
    }

    fn take(value: Option<&Json>, key: &str, bare: bool) -> Result<T> {
        decode(value.ok_or_else(|| missing(key))?, key, bare)
    }
}

impl<T: ToJson + FromJson> Member for Option<T> {
    fn put(&self, key: &str, out: &mut Members) {
        if let Some(value) = self {
            value.put(key, out);
        }
    }

    fn take(value: Option<&Json>, key: &str, bare: bool) -> Result<Option<T>> {
        value.map(|value| decode(value, key, bare)).transpose()
    }
}

/// Decodes a defaulted member: absent or `null` is `default()`, which is
/// evaluated only then.
pub fn take_or<T: FromJson>(
    value: Option<&Json>,
    key: &str,
    default: impl FnOnce() -> T,
) -> Result<T> {
    match value {
        None | Some(Json::Null) => Ok(default()),
        Some(value) => decode(value, key, false),
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
///   Unit = "tag", ... }`: an object whose `"type"` member, written first,
///   names the variant; the variant's fields follow as a record's do.  An
///   unknown tag is refused as `unknown <what> type '<tag>'`.
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
/// * `[flat]` — a record whose members are written into, and read from,
///   the enclosing object;
/// * `[with codec]` — written by `codec::put(&value, &mut members)` and
///   read by `codec::take(&object)`, for what a declaration cannot state.
///
/// A required member that is absent is refused as `missing field '…'`,
/// one that does not decode as `field '…': …` (see [`missing`],
/// [`in_field`]).
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
            fn from_json(json: &$crate::Json) -> $crate::Result<$name> {
                let name = json.as_str().ok_or_else(|| {
                    $crate::JsonError::new(concat!("expected a string for ", $what))
                })?;
                match name {
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
                                Vec::with_capacity(1 $($( + $crate::__wire_one!($field) )*)?);
                            members.push(("type".to_string(), $crate::Json::Str($tag.to_string())));
                            $($( $crate::__wire_put!(members, $field $([$($mode)+])?); )*)?
                            $crate::Json::Obj(members)
                        }
                    )+
                }
            }
        }

        impl $crate::FromJson for $name {
            fn from_json(json: &$crate::Json) -> $crate::Result<$name> {
                let tag: String = $crate::member(json, "type")?;
                match tag.as_str() {
                    $(
                        $tag => {
                            $($(
                                let $field: $fty = $crate::__wire_take!(
                                    json, $field, $fty $([$($mode)+])? $(= $default)?
                                )?;
                            )*)?
                            Ok($name::$variant $({ $($field),* })?)
                        }
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
                    Vec::with_capacity(0 $( + $crate::__wire_one!($field) )+);
                $( $crate::__wire_put!(members, $field $([$($mode)+])?); )+
                $crate::Json::Obj(members)
            }
        }

        impl $crate::FromJson for $name {
            fn from_json(json: &$crate::Json) -> $crate::Result<$name> {
                $(
                    let $field: $fty = $crate::__wire_take!(
                        json, $field, $fty $([$($mode)+])? $(= $default)?
                    )?;
                )+
                Ok($name { $($field),+ })
            }
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __wire_one {
    ($field:ident) => {
        1
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

#[doc(hidden)]
#[macro_export]
macro_rules! __wire_take {
    ($json:ident, $field:ident, $ty:ty) => {
        <$ty as $crate::wire::Member>::take(
            $json.get(stringify!($field)),
            stringify!($field),
            false,
        )
    };
    ($json:ident, $field:ident, $ty:ty [bare]) => {
        <$ty as $crate::wire::Member>::take($json.get(stringify!($field)), stringify!($field), true)
    };
    ($json:ident, $field:ident, $ty:ty [flat]) => {
        <$ty as $crate::FromJson>::from_json($json)
    };
    ($json:ident, $field:ident, $ty:ty [with $codec:ident]) => {
        $codec::take($json)
    };
    ($json:ident, $field:ident, $ty:ty = $default:expr) => {
        $crate::wire::take_or::<$ty>($json.get(stringify!($field)), stringify!($field), || {
            $default
        })
    };
}
