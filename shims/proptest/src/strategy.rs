//! The [`Strategy`] trait and the strategy constructors the workspace uses.

use std::marker::PhantomData;
use std::ops::Range;

use crate::test_runner::TestRng;

/// A recipe for generating random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Generate one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values with `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Always produce a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

// ── Integer ranges ──────────────────────────────────────────────────────

macro_rules! impl_range_strategy {
    ($($ty:ty),+) => {$(
        impl Strategy for Range<$ty> {
            type Value = $ty;
            fn generate(&self, rng: &mut TestRng) -> $ty {
                assert!(self.start < self.end, "empty range strategy");
                let width = self.end.abs_diff(self.start);
                let off = rng.below(u64::try_from(width).expect("range width"));
                self.start.wrapping_add(off as $ty)
            }
        }
    )+};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

// ── `any::<T>()` ────────────────────────────────────────────────────────

/// Types with a canonical "uniform random" strategy.
pub trait Arbitrary: Sized {
    /// Generate an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($ty:ty),+) => {$(
        impl Arbitrary for $ty {
            #[allow(clippy::cast_possible_truncation)]
            fn arbitrary(rng: &mut TestRng) -> $ty {
                rng.next_u64() as $ty
            }
        }
    )+};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.gen_bool()
    }
}

/// Strategy returned by [`any`].
pub struct Any<T>(PhantomData<fn() -> T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Uniform strategy over all values of `T`.
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

// ── Tuples ──────────────────────────────────────────────────────────────

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);

// ── Collections and options ─────────────────────────────────────────────

/// Strategy returned by [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let len = self.size.generate(rng);
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}

/// `prop::collection::vec`: vectors of `element` with a length drawn from
/// `size`.
pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
    VecStrategy { element, size }
}

/// Strategy returned by [`of`].
pub struct OptionStrategy<S> {
    inner: S,
}

impl<S: Strategy> Strategy for OptionStrategy<S> {
    type Value = Option<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
        if rng.gen_bool() {
            Some(self.inner.generate(rng))
        } else {
            None
        }
    }
}

/// `prop::option::of`: `None` or `Some(inner)` with equal probability.
pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
    OptionStrategy { inner }
}

// ── Samples ─────────────────────────────────────────────────────────────

/// An index into a collection whose length is only known at use time
/// (`prop::sample::Index`).
#[derive(Debug, Clone, Copy)]
pub struct Index {
    raw: u64,
}

impl Index {
    /// Resolve against a concrete collection length (`len > 0`).
    #[must_use]
    pub fn index(&self, len: usize) -> usize {
        assert!(len > 0, "Index::index on empty collection");
        (self.raw % len as u64) as usize
    }
}

impl Arbitrary for Index {
    fn arbitrary(rng: &mut TestRng) -> Index {
        Index {
            raw: rng.next_u64(),
        }
    }
}

// ── Union (prop_oneof!) ─────────────────────────────────────────────────

/// A boxed generator function; see [`gen_box`].
pub type BoxedGen<T> = Box<dyn Fn(&mut TestRng) -> T>;

/// Erase a strategy into a boxed generator (used by `prop_oneof!`).
pub fn gen_box<S: Strategy + 'static>(strategy: S) -> BoxedGen<S::Value> {
    Box::new(move |rng| strategy.generate(rng))
}

/// Uniform choice between several strategies of the same value type.
pub struct Union<T> {
    arms: Vec<BoxedGen<T>>,
}

impl<T> Union<T> {
    /// Build from the arm generators (`arms` must be non-empty).
    #[must_use]
    pub fn new(arms: Vec<BoxedGen<T>>) -> Union<T> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let arm = rng.below(self.arms.len() as u64) as usize;
        (self.arms[arm])(rng)
    }
}

// ── Regex-lite string strategies ────────────────────────────────────────

/// String patterns as strategies. Supports the subset of regex syntax the
/// workspace's tests use: a sequence of literal characters and character
/// classes `[a-z09]`, each optionally repeated `{m}` or `{m,n}`.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let mut out = String::new();
        let chars: Vec<char> = self.chars().collect();
        let mut i = 0;
        while i < chars.len() {
            let choices: Vec<char> = if chars[i] == '[' {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == ']')
                    .expect("unterminated [class] in string strategy")
                    + i;
                let mut set = Vec::new();
                let mut j = i + 1;
                while j < close {
                    if j + 2 < close && chars[j + 1] == '-' {
                        let (lo, hi) = (chars[j], chars[j + 2]);
                        assert!(lo <= hi, "bad range in [class]");
                        set.extend((lo..=hi).filter(|c| c.is_ascii()));
                        j += 3;
                    } else {
                        set.push(chars[j]);
                        j += 1;
                    }
                }
                i = close + 1;
                set
            } else {
                let c = chars[i];
                assert!(
                    !"\\.*+?()|^$".contains(c),
                    "unsupported regex syntax {c:?} in string strategy {self:?}"
                );
                i += 1;
                vec![c]
            };
            let (min, max) = if i < chars.len() && chars[i] == '{' {
                let close = chars[i..]
                    .iter()
                    .position(|&c| c == '}')
                    .expect("unterminated {m,n} in string strategy")
                    + i;
                let body: String = chars[i + 1..close].iter().collect();
                i = close + 1;
                match body.split_once(',') {
                    Some((m, n)) => (
                        m.parse::<usize>().expect("repeat min"),
                        n.parse::<usize>().expect("repeat max"),
                    ),
                    None => {
                        let m = body.parse::<usize>().expect("repeat count");
                        (m, m)
                    }
                }
            } else {
                (1, 1)
            };
            assert!(min <= max, "bad repeat {{m,n}}");
            let reps = min + rng.below((max - min + 1) as u64) as usize;
            for _ in 0..reps {
                let pick = rng.below(choices.len() as u64) as usize;
                out.push(choices[pick]);
            }
        }
        out
    }
}
