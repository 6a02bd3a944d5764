//! An index of names that holds no copy of them.

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher, RandomState};

/// Names found by a keyed hash of their bytes: the map holds each name's
/// 64-bit hash — std's SipHash under this process's secret keys, since
/// names come from unauthenticated submitters — and an id the caller turns
/// back into the name. So the index allocates only its table, however many
/// names it holds, and growing the table re-hashes nothing. Two different
/// names of one hash (by chance alone, the keys being secret) are told apart
/// by their bytes; the later one waits in a list beside the table.
#[derive(Debug, Default)]
pub(crate) struct HashIndex {
    keys: RandomState,
    ids: HashMap<u64, u32, BuildHasherDefault<Prehashed>>,
    /// `(hash, id)` of the names whose hash a different name holds in `ids`.
    collided: Vec<(u64, u32)>,
}

impl HashIndex {
    /// Make room for `more` names.
    pub(crate) fn reserve(&mut self, more: usize) {
        self.ids.reserve(more);
    }

    /// The id of `name`, if it is indexed; `name_of` gives an id's name.
    pub(crate) fn get<'n>(&self, name: &str, name_of: impl Fn(u32) -> &'n str) -> Option<u32> {
        self.get_hashed(self.keys.hash_one(name), name, name_of)
    }

    fn get_hashed<'n>(
        &self,
        hash: u64,
        name: &str,
        name_of: impl Fn(u32) -> &'n str,
    ) -> Option<u32> {
        let held = *self.ids.get(&hash)?;
        if name_of(held) == name {
            return Some(held);
        }
        self.collided.iter().find(|&&(h, id)| h == hash && name_of(id) == name).map(|&(_, id)| id)
    }

    /// Index `name` as `id`, unless it is indexed already: then the id it
    /// has, which stays.
    pub(crate) fn insert<'n>(
        &mut self,
        name: &str,
        id: u32,
        name_of: impl Fn(u32) -> &'n str,
    ) -> Option<u32> {
        self.insert_hashed(self.keys.hash_one(name), name, id, name_of)
    }

    fn insert_hashed<'n>(
        &mut self,
        hash: u64,
        name: &str,
        id: u32,
        name_of: impl Fn(u32) -> &'n str,
    ) -> Option<u32> {
        let held = *self.ids.entry(hash).or_insert(id);
        if held == id {
            return None;
        }
        if name_of(held) == name {
            return Some(held);
        }
        let repeat = self.collided.iter().find(|&&(h, at)| h == hash && name_of(at) == name);
        match repeat {
            Some(&(_, at)) => Some(at),
            None => {
                self.collided.push((hash, id));
                None
            }
        }
    }
}

/// The hasher of a map whose keys are hashes already: a key's `u64` is its
/// hash.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only `write_u64` is called, by `u64`'s `Hash`; anything else is
        // folded in rather than dropped.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every name indexed once, the first id of a repeat kept, and names of
    /// one hash told apart: under the keyed hash, and under one hash for
    /// every name.
    #[test]
    fn names_of_one_hash_are_told_apart_by_their_bytes() {
        let names = ["a", "b", "a", "c", "b"];
        let name_of = |id: u32| names[id as usize];
        let queries = ["a", "b", "c", "d"];
        let mut index = HashIndex::default();
        let repeats: Vec<_> =
            (0..5).map(|id| index.insert(names[id as usize], id, name_of)).collect();
        assert_eq!(repeats, [None, None, Some(0), None, Some(1)]);
        assert_eq!(queries.map(|n| index.get(n, name_of)), [Some(0), Some(1), Some(3), None]);

        let mut index = HashIndex::default();
        let repeats: Vec<_> =
            (0..5).map(|id| index.insert_hashed(7, names[id as usize], id, name_of)).collect();
        assert_eq!(repeats, [None, None, Some(0), None, Some(1)]);
        assert_eq!(index.collided, [(7, 1), (7, 3)]);
        assert_eq!(
            queries.map(|n| index.get_hashed(7, n, name_of)),
            [Some(0), Some(1), Some(3), None]
        );
    }
}
