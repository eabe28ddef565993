//! Declared fields: each counter and summary struct lists its fields once,
//! in [`declare!`](crate::declare), which keeps the struct as written and
//! derives [`Declared`] (a visitor over the fields in declaration order),
//! [`Value`] (so it can be another struct's field) and [`Fold`]. The JSON
//! form ([`crate::json::object`]) and the snapshot form (`gpu_sim::snapshot`)
//! are written once against the visitor. Fields are summed unless declared
//! `=> max` (maxed by `add`) or `=> keep` (left by both folds); folds run
//! field by field, left to right, so float sums are bit-stable.
//! A declaration reads `pub peak: usize => max,`; see the tests below.

/// How a field folds: its declaration's marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No marker: summed by `add`, subtracted by `sub`.
    Sum,
    /// `=> max`: maxed by `add`, left by `sub`.
    Max,
    /// `=> keep`: left by both.
    Keep,
}

/// One entry of a declared field list.
#[derive(Debug, Clone, Copy)]
pub struct Field {
    /// The field's name: its JSON key and snapshot entry.
    pub name: &'static str,
    /// How the field folds.
    pub mode: Mode,
    /// The field list of a nested record or of a list's rows.
    pub nested: &'static [Field],
}

/// Receives a declared struct's fields, in declaration order.
pub trait Writer {
    /// An integer.
    fn u64(&mut self, name: &str, v: u64);
    /// A float.
    fn f64(&mut self, name: &str, v: f64);
    /// A string.
    fn str(&mut self, name: &str, v: &str);
    /// A list of integers.
    fn u64s(&mut self, name: &str, v: &[u64]);
    /// A nested record.
    fn record<T: Declared>(&mut self, name: &str, v: &T);
    /// A list of records.
    fn records<T: Declared>(&mut self, name: &str, v: &[T]);
    /// A value derived from the fields, for readers only; never read back.
    fn derived(&mut self, _name: &str, _v: u64) {}
}

/// Supplies a declared struct's fields by name; each method fails with
/// `Self::Error` when the entry is missing or of another kind.
pub trait Reader {
    /// What a missing or mistyped entry reports.
    type Error;
    /// An integer.
    fn u64(&mut self, name: &str) -> Result<u64, Self::Error>;
    /// A float.
    fn f64(&mut self, name: &str) -> Result<f64, Self::Error>;
    /// A string.
    fn str(&mut self, name: &str) -> Result<String, Self::Error>;
    /// A list of integers.
    fn u64s(&mut self, name: &str) -> Result<Vec<u64>, Self::Error>;
    /// A nested record, read into `into`.
    fn record<T: Declared>(&mut self, name: &str, into: &mut T) -> Result<(), Self::Error>;
    /// A list of records.
    fn records<T: Declared + Default>(&mut self, name: &str) -> Result<Vec<T>, Self::Error>;
}

/// A struct whose fields are declared once.
pub trait Declared: Value {
    /// Presents every field to `w`, in declaration order.
    fn visit<W: Writer>(&self, w: &mut W);
    /// Overwrites every field from `r`, in declaration order, stopping at
    /// the first error.
    fn read_fields<R: Reader>(&mut self, r: &mut R) -> Result<(), R::Error>;
}

/// A type that can be a declared field.
pub trait Value {
    /// The field list of a record type or of a list's rows.
    const FIELDS: &'static [Field] = &[];
    /// Presents the value to `w` under `name`.
    fn write<W: Writer>(&self, name: &str, w: &mut W);
    /// Overwrites the value from `r`'s entry `name`.
    fn read<R: Reader>(&mut self, name: &str, r: &mut R) -> Result<(), R::Error>;
}

/// Field-by-field arithmetic, as declared.
pub trait Fold {
    /// Folds `o` in: summed fields add, maxed fields max, kept fields stay.
    fn add(&mut self, o: &Self);
    /// Takes `o` back out of the summed fields.
    fn sub(&mut self, o: &Self);
}

/// Leaf numbers: `$kind` names the [`Writer`]/[`Reader`] method; narrower
/// integers travel as `u64` and are truncated back.
macro_rules! leaf {
    ($($t:ty => $kind:ident),*) => {$(
        impl Value for $t {
            fn write<W: Writer>(&self, name: &str, w: &mut W) {
                w.$kind(name, *self as _);
            }
            fn read<R: Reader>(&mut self, name: &str, r: &mut R) -> Result<(), R::Error> {
                *self = r.$kind(name)? as _;
                Ok(())
            }
        }
        impl Fold for $t {
            fn add(&mut self, o: &Self) {
                *self += *o;
            }
            fn sub(&mut self, o: &Self) {
                *self -= *o;
            }
        }
    )*};
}

leaf!(u64 => u64, u32 => u64, usize => u64, f64 => f64);

/// Owned leaves that travel as they are.
macro_rules! owned {
    ($($t:ty => $kind:ident),*) => {$(
        impl Value for $t {
            fn write<W: Writer>(&self, name: &str, w: &mut W) {
                w.$kind(name, self);
            }
            fn read<R: Reader>(&mut self, name: &str, r: &mut R) -> Result<(), R::Error> {
                *self = r.$kind(name)?;
                Ok(())
            }
        }
    )*};
}

owned!(String => str, Vec<u64> => u64s);

impl<T: Declared + Default> Value for Vec<T> {
    const FIELDS: &'static [Field] = T::FIELDS;
    fn write<W: Writer>(&self, name: &str, w: &mut W) {
        w.records(name, self);
    }
    fn read<R: Reader>(&mut self, name: &str, r: &mut R) -> Result<(), R::Error> {
        *self = r.records(name)?;
        Ok(())
    }
}

/// A named row: `"name"`, then the row's own fields.
impl<T: Declared> Declared for (String, T) {
    fn visit<W: Writer>(&self, w: &mut W) {
        w.str("name", &self.0);
        self.1.visit(w);
    }
    fn read_fields<R: Reader>(&mut self, r: &mut R) -> Result<(), R::Error> {
        self.0 = r.str("name")?;
        self.1.read_fields(r)
    }
}

impl<T: Declared> Value for (String, T) {
    const FIELDS: &'static [Field] = T::FIELDS;
    fn write<W: Writer>(&self, name: &str, w: &mut W) {
        w.record(name, self);
    }
    fn read<R: Reader>(&mut self, name: &str, r: &mut R) -> Result<(), R::Error> {
        r.record(name, self)
    }
}

/// Named rows fold by name: each row of `o` folds into the first row of
/// the same name; `add` appends rows it lacks (first-seen order) and `sub`
/// panics on them, since they were never added.
impl<T: Fold + Clone> Fold for Vec<(String, T)> {
    fn add(&mut self, o: &Self) {
        for (name, row) in o {
            match self.iter_mut().find(|(n, _)| n == name) {
                Some((_, acc)) => acc.add(row),
                None => self.push((name.clone(), row.clone())),
            }
        }
    }

    fn sub(&mut self, o: &Self) {
        for (name, row) in o {
            let found = self.iter_mut().find(|(n, _)| n == name);
            found.expect("subtracted row was added").1.sub(row);
        }
    }
}

/// Declares a counter or summary struct once and derives [`Declared`],
/// [`Value`] and [`Fold`] from its field list (see [`crate::fields`]).
#[macro_export]
macro_rules! declare {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* pub $field:ident : $ty:ty $(=> $mode:ident)?),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        impl $crate::fields::Declared for $name {
            fn visit<W: $crate::fields::Writer>(&self, w: &mut W) {
                $($crate::fields::Value::write(&self.$field, stringify!($field), w);)*
            }
            fn read_fields<R: $crate::fields::Reader>(&mut self, r: &mut R) -> Result<(), R::Error> {
                $($crate::fields::Value::read(&mut self.$field, stringify!($field), r)?;)*
                Ok(())
            }
        }

        impl $crate::fields::Value for $name {
            const FIELDS: &'static [$crate::fields::Field] = &[$($crate::fields::Field {
                name: stringify!($field),
                mode: $crate::__fold!(mode $($mode)?),
                nested: <$ty as $crate::fields::Value>::FIELDS,
            }),*];
            fn write<W: $crate::fields::Writer>(&self, name: &str, w: &mut W) {
                w.record(name, self);
            }
            fn read<R: $crate::fields::Reader>(&mut self, name: &str, r: &mut R) -> Result<(), R::Error> {
                r.record(name, self)
            }
        }

        impl $crate::fields::Fold for $name {
            fn add(&mut self, o: &Self) {
                $($crate::__fold!(add $($mode)?; self.$field, o.$field);)*
            }
            fn sub(&mut self, o: &Self) {
                $($crate::__fold!(sub $($mode)?; self.$field, o.$field);)*
            }
        }
    };
}

/// One field's fold marker, as a [`Mode`] or as code.
#[doc(hidden)]
#[macro_export]
macro_rules! __fold {
    (mode) => {
        $crate::fields::Mode::Sum
    };
    (mode max) => {
        $crate::fields::Mode::Max
    };
    (mode keep) => {
        $crate::fields::Mode::Keep
    };
    ($op:ident; $a:expr, $b:expr) => {
        $crate::fields::Fold::$op(&mut $a, &$b)
    };
    (add max; $a:expr, $b:expr) => {
        $a = $a.max($b)
    };
    ($op:ident $mode:ident; $a:expr, $b:expr) => {};
}

#[cfg(test)]
mod tests {
    use super::{Fold, Mode, Value};

    crate::declare! {
        /// Example counters.
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct Example {
            /// Summed.
            pub hits: u64,
            /// Maxed.
            pub peak: usize => max,
            /// Kept.
            pub label: String => keep,
        }
    }

    #[test]
    fn declared_fields_fold_and_write_as_declared() {
        let modes: Vec<_> = Example::FIELDS.iter().map(|f| (f.name, f.mode)).collect();
        assert_eq!(
            modes,
            [
                ("hits", Mode::Sum),
                ("peak", Mode::Max),
                ("label", Mode::Keep)
            ]
        );
        let row = |hits, peak, label: &str| Example {
            hits,
            peak,
            label: label.into(),
        };
        let mut a = row(1, 4, "a");
        a.add(&row(2, 3, "b"));
        assert_eq!(a, row(3, 4, "a"));
        a.sub(&row(2, 9, "c"));
        assert_eq!(a, row(1, 4, "a"));
        assert_eq!(
            crate::json::object(&a),
            r#"{"hits":1,"peak":4,"label":"a"}"#
        );
    }
}
