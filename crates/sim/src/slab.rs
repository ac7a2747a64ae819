//! A generational slab arena for in-flight simulation state.
//!
//! The event heap must not own heavyweight payloads (events are copied around
//! inside the binary heap), so the engine parks in-flight `Query`s and root
//! request state here and threads a plain [`SlotRef`] — a dense `u32` index
//! plus a generation counter — through the event payloads. Lookups are a
//! bounds-checked array index instead of a `HashMap` probe, which removes all
//! hashing from the per-event hot path. The generation counter makes stale
//! references (a slot freed and reused) detectable: `get`/`remove` with an
//! outdated generation return `None` instead of aliasing the new occupant.

/// A generational reference to a slot in a [`Slab`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SlotRef {
    slot: u32,
    generation: u32,
}

impl SlotRef {
    /// Pack into a `u64` (generation in the high half) so the reference can be
    /// carried in existing `u64` id fields.
    pub fn pack(self) -> u64 {
        ((self.generation as u64) << 32) | self.slot as u64
    }

    /// Inverse of [`SlotRef::pack`].
    pub fn unpack(packed: u64) -> Self {
        SlotRef {
            slot: packed as u32,
            generation: (packed >> 32) as u32,
        }
    }
}

struct Entry<T> {
    generation: u32,
    value: Option<T>,
}

/// A slab arena: O(1) insert/remove/lookup with dense integer keys and
/// generation-checked access. Freed slots are recycled LIFO.
pub struct Slab<T> {
    entries: Vec<Entry<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        Slab {
            entries: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// An empty slab with room for `capacity` values before reallocating.
    pub fn with_capacity(capacity: usize) -> Self {
        Slab {
            entries: Vec::with_capacity(capacity),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no values are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert a value, returning its reference.
    #[inline]
    pub fn insert(&mut self, value: T) -> SlotRef {
        self.len += 1;
        match self.free.pop() {
            Some(slot) => {
                let entry = &mut self.entries[slot as usize];
                debug_assert!(entry.value.is_none());
                entry.value = Some(value);
                SlotRef {
                    slot,
                    generation: entry.generation,
                }
            }
            None => {
                #[expect(clippy::expect_used, reason = "2^32 live entries outgrow memory first")]
                let slot = u32::try_from(self.entries.len()).expect("slab overflow");
                self.entries.push(Entry {
                    generation: 0,
                    value: Some(value),
                });
                SlotRef {
                    slot,
                    generation: 0,
                }
            }
        }
    }

    /// Shared access; `None` if the reference is stale or vacant.
    pub fn get(&self, r: SlotRef) -> Option<&T> {
        self.entries
            .get(r.slot as usize)
            .filter(|e| e.generation == r.generation)
            .and_then(|e| e.value.as_ref())
    }

    /// Mutable access; `None` if the reference is stale or vacant.
    #[inline]
    pub fn get_mut(&mut self, r: SlotRef) -> Option<&mut T> {
        self.entries
            .get_mut(r.slot as usize)
            .filter(|e| e.generation == r.generation)
            .and_then(|e| e.value.as_mut())
    }

    /// Remove and return the value; `None` if the reference is stale or
    /// vacant. The slot is recycled with a bumped generation.
    #[inline]
    pub fn remove(&mut self, r: SlotRef) -> Option<T> {
        let entry = self.entries.get_mut(r.slot as usize)?;
        if entry.generation != r.generation || entry.value.is_none() {
            return None;
        }
        let value = entry.value.take();
        entry.generation = entry.generation.wrapping_add(1);
        self.free.push(r.slot);
        self.len -= 1;
        value
    }

    /// Remove every value, visiting each one (used to account for state still
    /// in flight when a run ends).
    pub fn drain_with(&mut self, mut f: impl FnMut(T)) {
        for (slot, entry) in self.entries.iter_mut().enumerate() {
            if let Some(value) = entry.value.take() {
                entry.generation = entry.generation.wrapping_add(1);
                self.free.push(slot as u32);
                self.len -= 1;
                f(value);
            }
        }
        debug_assert_eq!(self.len, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut slab = Slab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(a), Some(&"a"));
        assert_eq!(slab.remove(b), Some("b"));
        assert_eq!(slab.remove(b), None, "double remove must fail");
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.get(a), Some(&"a"));
    }

    #[test]
    fn stale_references_are_rejected_after_reuse() {
        let mut slab = Slab::new();
        let a = slab.insert(1);
        slab.remove(a);
        let b = slab.insert(2);
        // slot recycled, generation bumped
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.get(b), Some(&2));
        assert_ne!(a, b);
    }

    #[test]
    fn pack_roundtrips() {
        let mut slab = Slab::new();
        for i in 0..100 {
            let r = slab.insert(i);
            assert_eq!(SlotRef::unpack(r.pack()), r);
        }
        let r = slab.insert(7);
        slab.remove(r);
        let r2 = slab.insert(8);
        assert_eq!(r2.slot, r.slot);
        assert_ne!(SlotRef::unpack(r.pack()), r2);
    }

    #[test]
    fn drain_visits_all_live_values() {
        let mut slab = Slab::new();
        let refs: Vec<_> = (0..10).map(|i| slab.insert(i)).collect();
        slab.remove(refs[3]);
        slab.remove(refs[7]);
        let mut seen = Vec::new();
        slab.drain_with(|v| seen.push(v));
        seen.sort();
        assert_eq!(seen, vec![0, 1, 2, 4, 5, 6, 8, 9]);
        assert!(slab.is_empty());
        // slots are reusable afterwards
        let r = slab.insert(42);
        assert_eq!(slab.get(r), Some(&42));
    }
}
