//! The wire schema: every payload kind declared once.
//!
//! The `Payload` declaration in `fabric.rs` is a table read by
//! `wire_schema!`. Each entry is one kind: its number, its `KIND_*` name,
//! its variant, and the variant's fields in wire order, each with a wire
//! type:
//!
//! * a scalar: `u32`, `u64`, `f32`, or `usize`, which travels as a `u64`;
//! * a section: `[u8]`, `[u32]`, `[f32]`, `[u64]` or `[usize]`, a
//!   `u32 count` and then `count` elements.
//!
//! Everything travels big-endian, and floats as their raw IEEE-754 bits.
//! A field is a variant's own (`Control(code: u64)`,
//! `Samples { data: [f32], .. }`) or, for a variant wrapping a struct,
//! the struct's (`ShardMap(ShardSpec { version: u64, .. })`). An entry
//! may end in `| Alias(Type)`: a second variant with the same kind and
//! body, which decodes as the first. A frame carries fields, not
//! relations between them: that a bucket index is below its count, or
//! that a shard map's starts ascend, is the receiver's to check.
//!
//! From the table the macro generates the `Payload` enum and, on it:
//! `body_bytes`, the kind byte (`kind`), one body writer over a
//! [`WireSink`] (`write_body`), one body reader over a [`WireSource`]
//! (`read_body`), the kinds whose body is exactly one f32 section
//! (`f32_section_kind`), and DESIGN.md §13's wire table (`wire_table`).
//! `selsync-net` implements the sink with its frame writer and the
//! source with its reader over a verified frame. A kind without an
//! encode, a decode or its byte count cannot be written down, two kinds
//! with one number fail a const assertion, and a field type with no
//! wire form has no `Field` impl, so neither compiles.

/// An element of a section, or a scalar field: `N` big-endian bytes on
/// the wire. Floats travel as their raw bits, and a `usize` as a `u64`.
pub trait Word<const N: usize>: Copy {
    /// The element's wire bytes.
    fn to_wire(self) -> [u8; N];
    /// The element of these wire bytes.
    fn from_wire(bytes: [u8; N]) -> Self;
}

impl Word<4> for f32 {
    #[inline(always)]
    fn to_wire(self) -> [u8; 4] {
        self.to_bits().to_be_bytes()
    }
    #[inline(always)]
    fn from_wire(bytes: [u8; 4]) -> f32 {
        f32::from_bits(u32::from_be_bytes(bytes))
    }
}

impl Word<4> for u32 {
    #[inline(always)]
    fn to_wire(self) -> [u8; 4] {
        self.to_be_bytes()
    }
    #[inline(always)]
    fn from_wire(bytes: [u8; 4]) -> u32 {
        u32::from_be_bytes(bytes)
    }
}

impl Word<8> for u64 {
    #[inline(always)]
    fn to_wire(self) -> [u8; 8] {
        self.to_be_bytes()
    }
    #[inline(always)]
    fn from_wire(bytes: [u8; 8]) -> u64 {
        u64::from_be_bytes(bytes)
    }
}

impl Word<8> for usize {
    #[inline(always)]
    fn to_wire(self) -> [u8; 8] {
        (self as u64).to_be_bytes()
    }
    #[inline(always)]
    fn from_wire(bytes: [u8; 8]) -> usize {
        u64::from_be_bytes(bytes) as usize
    }
}

/// Where a payload body is written.
pub trait WireSink {
    /// Bytes that travel as they are.
    fn put_raw(&mut self, bytes: &[u8]);
    /// A section: `u32 count`, then `v`'s elements as big-endian words.
    fn put_section<T: Word<N>, const N: usize>(&mut self, v: &[T]);
}

/// Where a payload body is read from. Every read is checked against the
/// bytes left, a section's count before anything is allocated.
pub trait WireSource {
    /// Why a read failed.
    type Error;
    /// The next `N` bytes.
    fn take<const N: usize>(&mut self) -> Result<[u8; N], Self::Error>;
    /// A `u8` section's bytes.
    fn get_bytes(&mut self) -> Result<Vec<u8>, Self::Error>;
    /// A section of words.
    fn get_section<T: Word<N>, const N: usize>(&mut self) -> Result<Vec<T>, Self::Error>;
}

/// The Rust type of a field's wire type.
macro_rules! wire_type {
    ([$t:ty]) => { Vec<$t> };
    ($t:ty) => { $t };
}
pub(crate) use wire_type;

/// A field type with a wire form.
pub(crate) trait Field: Sized {
    /// The field's row in a body layout, as DESIGN.md §13 prints it.
    fn layout(name: &str) -> String;
    /// Bytes on the wire.
    fn wire_len(&self) -> u64;
    fn put(&self, sink: &mut impl WireSink);
    fn get<S: WireSource>(src: &mut S) -> Result<Self, S::Error>;
}

/// Bytes `v`'s elements take on the wire.
fn words_len<T: Word<N>, const N: usize>(v: &[T]) -> u64 {
    (N * v.len()) as u64
}

/// A scalar of each word type, and a section of it.
macro_rules! word_fields {
    ($($t:ty: $wire:literal),*) => {$(
        impl Field for $t {
            fn layout(name: &str) -> String {
                format!(concat!($wire, " {}"), name)
            }
            fn wire_len(&self) -> u64 {
                words_len(std::slice::from_ref(self))
            }
            fn put(&self, sink: &mut impl WireSink) {
                sink.put_raw(&self.to_wire());
            }
            fn get<S: WireSource>(src: &mut S) -> Result<$t, S::Error> {
                Ok(<$t>::from_wire(src.take()?))
            }
        }

        impl Field for Vec<$t> {
            fn layout(_: &str) -> String {
                concat!("u32 count + count × ", $wire).to_string()
            }
            fn wire_len(&self) -> u64 {
                4 + words_len(self)
            }
            fn put(&self, sink: &mut impl WireSink) {
                sink.put_section(self);
            }
            fn get<S: WireSource>(src: &mut S) -> Result<Vec<$t>, S::Error> {
                src.get_section()
            }
        }
    )*};
}

word_fields!(u32: "u32", u64: "u64", f32: "f32", usize: "u64");

/// A section of bytes travels as it is.
impl Field for Vec<u8> {
    fn layout(_: &str) -> String {
        "u32 count + count × u8".to_string()
    }
    fn wire_len(&self) -> u64 {
        4 + self.len() as u64
    }
    fn put(&self, sink: &mut impl WireSink) {
        sink.put_raw(&(self.len() as u32).to_be_bytes());
        sink.put_raw(self);
    }
    fn get<S: WireSource>(src: &mut S) -> Result<Vec<u8>, S::Error> {
        src.get_bytes()
    }
}

/// The schema macro. Entries are read one at a time (`@entry`) into one
/// form, `{ [docs] number KIND Variant (declaration) (pattern)
/// [field wire-type ...] [alias] }`, in which the pattern doubles as the
/// constructor from fields bound by name; `@emit` then writes every item
/// from the list.
macro_rules! wire_schema {
    (
        $(#[$attr:meta])*
        pub enum Payload { $($entries:tt)* }
    ) => {
        $crate::wire::wire_schema!(@entry [$(#[$attr])*] [] $($entries)*);
    };

    // a newtype over one field, perhaps with an alias
    (@entry $attrs:tt [$($done:tt)*]
        $(#[$doc:meta])* $num:literal $kind:ident => $v:ident ($f:ident: $wt:tt)
        $($(#[$adoc:meta])* | $a:ident($aty:ty))?,
        $($rest:tt)*
    ) => {
        $crate::wire::wire_schema!(@entry $attrs [$($done)* {
            [$(#[$doc])*] $num $kind $v ($crate::wire::wire_type!($wt)) ($f) [$f $wt]
            [$([$(#[$adoc])*] $a $aty, $f $wt)?]
        }] $($rest)*);
    };

    // a newtype over a struct whose fields travel in order
    (@entry $attrs:tt [$($done:tt)*]
        $(#[$doc:meta])* $num:literal $kind:ident => $v:ident ($s:ident { $($f:ident: $wt:tt),* }),
        $($rest:tt)*
    ) => {
        $crate::wire::wire_schema!(@entry $attrs [$($done)* {
            [$(#[$doc])*] $num $kind $v ($s) ($s { $($f),* }) [$($f $wt)*] []
        }] $($rest)*);
    };

    // a struct variant
    (@entry $attrs:tt [$($done:tt)*]
        $(#[$doc:meta])* $num:literal $kind:ident => $v:ident {
            $($(#[$fdoc:meta])* $f:ident: $wt:tt),* $(,)?
        },
        $($rest:tt)*
    ) => {
        $crate::wire::wire_schema!(@entry $attrs [$($done)* {
            [$(#[$doc])*] $num $kind $v { $($(#[$fdoc])* $f: $crate::wire::wire_type!($wt)),* }
            { $($f),* } [$($f $wt)*] []
        }] $($rest)*);
    };

    (@entry $attrs:tt $done:tt) => {
        $crate::wire::wire_schema!(@emit $attrs $done);
    };

    // the constructor of a kind whose body is one f32 section
    (@one_f32 $v:ident $pat:tt $f:ident [f32]) => {
        Some(|$f| Payload::$v $pat)
    };
    (@one_f32 $($other:tt)*) => {
        None
    };

    (@emit [$(#[$attr:meta])*] [$({
        [$(#[$doc:meta])*] $num:literal $kind:ident $v:ident $decl:tt $pat:tt
        [$($f:ident $wt:tt)*]
        [$([$(#[$adoc:meta])*] $a:ident $aty:ty, $af:ident $awt:tt)?]
    })*]) => {
        $(#[$attr])*
        pub enum Payload {
            $(
                $(#[$doc])*
                $v $decl,
                $($(#[$adoc])* $a($aty),)?
            )*
        }

        const _: () = {
            let kinds: &[u8] = &[$($num),*];
            let mut i = 0;
            while i < kinds.len() {
                let mut j = 0;
                while j < i {
                    assert!(kinds[i] != kinds[j], "two wire kinds share a number");
                    j += 1;
                }
                i += 1;
            }
        };

        impl Payload {
            /// Bytes of the payload body as the wire codec encodes it
            /// (length prefixes included). `selsync-net` asserts this
            /// against real encoded frames, so in-process and TCP byte
            /// accounting agree.
            pub fn body_bytes(&self) -> u64 {
                use $crate::wire::{wire_type, Field};
                match self {
                    $(
                        Payload::$v $pat => 0 $(+ <wire_type!($wt) as Field>::wire_len($f))*,
                        $(Payload::$a($af) => <wire_type!($awt) as Field>::wire_len($af),)?
                    )*
                }
            }

            /// The kind byte this payload's frame carries.
            pub fn kind(&self) -> u8 {
                match self {
                    $(Payload::$v { .. } $(| Payload::$a { .. })? => $num,)*
                }
            }

            /// Write the body, its fields in schema order.
            pub fn write_body(&self, sink: &mut impl $crate::wire::WireSink) {
                use $crate::wire::{wire_type, Field};
                match self {
                    $(
                        Payload::$v $pat => {
                            $(<wire_type!($wt) as Field>::put($f, sink);)*
                        }
                        $(Payload::$a($af) => <wire_type!($awt) as Field>::put($af, sink),)?
                    )*
                }
            }

            /// Read the body of a frame of kind `kind`, its fields in
            /// schema order; `None` for a kind the schema does not declare.
            ///
            /// # Errors
            /// The first read `src` refuses.
            #[inline]
            pub fn read_body<S: $crate::wire::WireSource>(
                kind: u8,
                src: &mut S,
            ) -> Result<Option<Payload>, S::Error> {
                use $crate::wire::{wire_type, Field};
                Ok(Some(match kind {
                    $($num => {
                        $(let $f = <wire_type!($wt) as Field>::get(src)?;)*
                        Payload::$v $pat
                    })*
                    _ => return Ok(None),
                }))
            }

            /// The constructor of kind `kind` when its body is exactly one
            /// f32 section, the kinds a model travels as; else `None`.
            pub fn f32_section_kind(kind: u8) -> Option<fn(Vec<f32>) -> Payload> {
                match kind {
                    $($num => $crate::wire::wire_schema!(@one_f32 $v $pat $($f $wt)*),)*
                    _ => None,
                }
            }

            /// DESIGN.md §13's wire table: one row per kind, its variants
            /// and its body layout.
            pub fn wire_table() -> String {
                use $crate::wire::{wire_type, Field};
                let mut table = String::from(
                    "| kind | const | payload variants | body layout |\n|---|---|---|---|\n",
                );
                $(
                    let variants: &[&str] = &[stringify!($v) $(, stringify!($a))?];
                    let layout: &[String] =
                        &[$(<wire_type!($wt) as Field>::layout(stringify!($f))),*];
                    table += &format!(
                        "| {} | {} | {} | {} |\n",
                        $num,
                        stringify!($kind),
                        variants.join(", "),
                        layout.join(" + ")
                    );
                )*
                table
            }
        }
    };
}
pub(crate) use wire_schema;
