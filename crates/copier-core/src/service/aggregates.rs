//! What a shard owns — its core and its clients — and keeps incrementally
//! instead of sweeping them every round (DESIGN.md §17–§18): the admission
//! latch, the cached minimum vruntime, the active set and the delta-folded
//! trace-hash sums. Each is a type whose fields only this module can
//! write, with an `audit` that recomputes it from scratch;
//! [`Copier::audit_aggregates`] is their conjunction.
//! `CopierConfig::full_sweep` — the reference behaviour every aggregate is
//! tested against — is read here and nowhere else in the service: under it
//! the min-vruntime is a scan on every read, the assignment list is every
//! client the shard owns, and the hashes are recomputed each traced round.

use std::cell::{Cell, Ref, RefCell};
use std::collections::BTreeMap;
use std::ptr;
use std::rc::Rc;

use copier_sim::trace::{fnv_fold, FNV_OFFSET};
use copier_sim::Core;

use super::{ControlObs, Copier};
use crate::client::Client;
use crate::config::CopierConfig;
use crate::sched::{min_live_vruntime, vruntime_before};

/// One control-plane shard's private state (DESIGN.md §17): its core, its
/// clients and what it keeps about them. The hot counters (the admitted
/// bytes, the stats deltas) are written and read only by the owning shard
/// during its round; the one cross-shard value, the `peer_min_vr` mirror,
/// is rewritten for every shard by the last arriver at the round barrier,
/// in shard-id order — the deterministic "message round". Reads of
/// cross-shard state therefore never observe a peer mid-round, which is
/// what keeps N-shard runs bit-reproducible from a seed.
pub(super) struct ShardState {
    /// The dedicated core this shard's service thread runs on.
    pub(super) core: Rc<Core>,
    /// The clients this shard owns (by space hash, for their lifetime),
    /// in `reg_seq` order. Only [`Self::join`] and [`Self::leave`] write it.
    clients: RefCell<Vec<Rc<Client>>>,
    /// The bytes this shard's clients have admitted, and the shedding
    /// latch over the shard's share of the watermarks.
    pub(super) admit: AdmitLatch,
    /// Wrap-safe minimum live vruntime across every *other* shard as of
    /// the last barrier (`None`: peers have no live clients). Keeps the
    /// least-served admission exemption global without scanning peer
    /// client lists mid-round.
    pub(super) peer_min_vr: Cell<Option<u64>>,
    /// Monotone per-shard round counter: round identity in the
    /// record/replay trace. Counts every traced poll round, active or
    /// idle — idle rounds emit nothing thanks to lazy headers.
    pub(super) round_no: Cell<u64>,
    /// Bytes physically copied by this shard (stats delta).
    bytes_copied: Cell<u64>,
    /// Tasks completed by this shard (stats delta).
    tasks_completed: Cell<u64>,
    /// Rounds in which this shard executed a batch (stats delta).
    rounds_active: Cell<u64>,
    pub(super) active: ActiveSet,
    min_vr: MinVr,
    pub(super) hashes: HashSums,
}

impl ShardState {
    /// The states of a service's shards, one per dedicated core.
    pub(super) fn all(cores: Vec<Rc<Core>>, cfg: &CopierConfig) -> Vec<ShardState> {
        let sweep = cfg.full_sweep;
        // The byte watermark is a per-shard budget: an even share each.
        let n = cores.len() as u64;
        let share = |bytes: u64| bytes / n;
        let q = &cfg.admission;
        cores
            .into_iter()
            .map(|core| ShardState {
                core,
                clients: RefCell::default(),
                admit: AdmitLatch::new(share(q.global_low_bytes), share(q.global_high_bytes)),
                peer_min_vr: Cell::new(None),
                round_no: Cell::new(0),
                bytes_copied: Cell::new(0),
                tasks_completed: Cell::new(0),
                rounds_active: Cell::new(0),
                active: ActiveSet {
                    map: RefCell::default(),
                    epoch: Cell::new(0),
                    sweep,
                    activations: Cell::new(0),
                    deactivations: Cell::new(0),
                    rebuilds: Cell::new(0),
                },
                min_vr: MinVr::new(sweep),
                // One thread owns all of a shard's clients, so nothing
                // touches a client behind the round that marked it dirty.
                hashes: HashSums::new(cfg.tracer.is_some() && !sweep),
            })
            .collect()
    }

    /// The clients this shard owns, in registration order.
    fn owned(&self) -> Ref<'_, [Rc<Client>]> {
        Ref::map(self.clients.borrow(), Vec::as_slice)
    }

    /// `client`, stamped with this shard and a fresh `reg_seq`, joins the
    /// list and the aggregates with a clean slate: whatever a dead
    /// incarnation left in its marks means nothing to this one.
    pub(super) fn join(&self, client: &Rc<Client>) {
        self.clients.borrow_mut().push(Rc::clone(client));
        client.marks.active.set(false);
        client.marks.hash_cache.set((0, 0));
        client.marks.hash_dirty.set(false);
        self.min_vr.register(client.copied_total.get());
        // A fresh client contributes a non-trivial fold (its empty index
        // digests into hx), so the delta-folded sums must pick it up even
        // if it never becomes active.
        self.hashes.mark_dirty(client);
        self.active.bump_epoch();
    }

    /// A reaped client leaves the shard's list, the active set, the cached
    /// min-vruntime and the hash sums. `was_dead`: an earlier reap already
    /// took it out of all four.
    pub(super) fn leave(&self, client: &Rc<Client>, was_dead: bool) {
        self.clients.borrow_mut().retain(|c| !Rc::ptr_eq(c, client));
        self.active.deactivate(client);
        if !was_dead {
            self.min_vr.reap(client.copied_total.get());
        }
        self.hashes.forget(client);
        self.active.bump_epoch();
    }

    /// Refreshes `a`, this shard's round assignment (epoch-cached: a
    /// stable membership reuses the buffer untouched): the active set in
    /// `reg_seq` (= registration) order, filtered by the round's
    /// registration watermark — exactly the clients a snapshot of the
    /// shard's list would have found with any unsettled state, in the same
    /// order (see [`settled`] for the equivalence argument).
    /// `full_sweep`: that snapshot itself.
    pub(super) fn assign(&self, a: &mut Assigned) {
        let active = &self.active;
        let ep = active.epoch.get();
        if a.epoch == ep {
            return;
        }
        a.epoch = ep;
        active.rebuilds.set(active.rebuilds.get() + 1);
        a.clients.clear();
        if active.sweep {
            a.clients.extend(self.owned().iter().cloned());
            return;
        }
        let map = active.map.borrow();
        let snapshot = map.range(..a.reg_watermark);
        a.clients.extend(snapshot.map(|(_, c)| Rc::clone(c)));
    }

    /// Round-end maintenance: every assigned client that ended the round
    /// fully settled leaves the active set; it generates no control-plane
    /// work until its next doorbell.
    pub(super) fn settle(&self, a: &mut Assigned) {
        if self.active.sweep {
            return;
        }
        self.assign(a);
        // Deactivation mutates the map, not the list that mirrors it; the
        // epoch bump makes the next round rebuild that.
        for c in a.clients.iter().filter(|c| settled(c)) {
            self.active.deactivate(c);
        }
    }

    /// Wrap-safe minimum live vruntime among the shard's clients — what
    /// it publishes at the round barrier and what the least-served
    /// admission exemption compares against.
    pub(super) fn min_live_vr(&self) -> Option<u64> {
        self.min_vr.get(self.owned().iter())
    }

    /// Membership (every listed client live and stamped with this shard
    /// of `shards`, `reg_seq` strictly increasing), then each aggregate.
    fn audit(&self, shards: &[ShardState]) -> Result<(), String> {
        let owned = self.owned();
        let mine = |c: &Client| shards.get(c.shard.get()).is_some_and(|s| ptr::eq(s, self));
        let stray = owned.iter().find(|c| c.dead.get() || !mine(c));
        let twice = owned.windows(2).find(|w| w[0].reg_seq >= w[1].reg_seq);
        match (stray, twice) {
            (Some(c), _) => Err(format!("client {} reaped or misstamped", c.id)),
            (None, Some(w)) => Err(format!("client {} listed twice or out of order", w[1].id)),
            (None, None) => self
                .min_vr
                .audit(owned.iter())
                .and_then(|()| self.active.audit(&owned))
                .and_then(|()| self.hashes.audit(owned.iter())),
        }
    }
}

/// The per-client cells of the shard aggregates: active-set membership
/// and the cached trace-hash contribution. They live on the [`Client`]
/// so a doorbell is O(1), and are written only here.
#[derive(Default)]
pub(crate) struct Marks {
    /// Membership flag for the shard's [`ActiveSet`] (O(1) idempotent
    /// doorbell).
    active: Cell<bool>,
    /// The client's `(hp, hx)` contribution as last folded into its
    /// shard's [`HashSums`].
    hash_cache: Cell<(u64, u64)>,
    /// Whether `hash_cache` is stale (the client was touched since the
    /// last fold). Guards duplicate entries in the shard's dirty list.
    hash_dirty: Cell<bool>,
}

/// The bytes a shard's clients currently hold admitted, and the shedding
/// latch over them: set when the bytes reach the shard's `high` mark,
/// cleared once they are back at its `low` mark. It reads no peer.
pub(super) struct AdmitLatch {
    low: u64,
    high: u64,
    bytes: Cell<u64>,
    shedding: Cell<bool>,
}

impl AdmitLatch {
    fn new(low: u64, high: u64) -> Self {
        AdmitLatch {
            low,
            high,
            bytes: Cell::new(0),
            shedding: Cell::new(false),
        }
    }

    /// Bytes currently admitted — what the shard's share of the
    /// watermarks gates.
    pub(super) fn bytes(&self) -> u64 {
        self.bytes.get()
    }

    /// An admitted task occupies window capacity.
    pub(super) fn add(&self, len: u64) {
        self.bytes.set(self.bytes.get() + len);
    }

    /// Inverse of [`Self::add`] for the completion path.
    pub(super) fn sub(&self, len: u64) {
        self.bytes.set(self.bytes.get().saturating_sub(len));
    }

    /// Moves the latch for one admission decision and returns whether the
    /// shard sheds.
    pub(super) fn shedding(&self) -> bool {
        let bytes = self.bytes.get();
        if self.shedding.get() {
            if bytes <= self.low {
                self.shedding.set(false);
            }
        } else if bytes >= self.high {
            self.shedding.set(true);
        }
        self.shedding.get()
    }
}

/// Cached wrap-safe minimum live vruntime over a shard's clients, with
/// the count of clients sitting at that minimum. The only vruntime that
/// ever *moves* is a charged client's, so the cache updates in O(1) —
/// idle tenants sitting at the minimum never force a rescan; losing the
/// last min-holder invalidates, and the next read rescans once.
pub(super) struct MinVr {
    min: Cell<u64>,
    count: Cell<u64>,
    /// False means stale (recomputed lazily on the next read); valid with
    /// `count == 0` means "no live clients".
    valid: Cell<bool>,
    /// `full_sweep`: every read is the reference scan, and the cache,
    /// never validated, stays out of it.
    sweep: bool,
    /// O(shard-clients) rescans (cache invalidations hit by a read).
    recomputes: Cell<u64>,
}

impl MinVr {
    fn new(sweep: bool) -> Self {
        MinVr {
            min: Cell::new(0),
            count: Cell::new(0),
            valid: Cell::new(false),
            sweep,
            recomputes: Cell::new(0),
        }
    }

    /// The minimum and how many live clients sit at it, from scratch.
    fn scan<'a>(owned: impl Iterator<Item = &'a Rc<Client>> + Clone) -> Option<(u64, u64)> {
        let m = min_live_vruntime(owned.clone())?;
        let n = owned
            .filter(|c| !c.dead.get() && c.copied_total.get() == m)
            .count();
        Some((m, n as u64))
    }

    /// Folds a newly registered (or adopted) client's vruntime `v` in. A
    /// stale cache stays stale — it recomputes on the next read.
    pub(super) fn register(&self, v: u64) {
        if !self.valid.get() {
            return;
        }
        if self.count.get() == 0 || vruntime_before(v, self.min.get()) {
            self.min.set(v);
            self.count.set(1);
        } else if v == self.min.get() {
            self.count.set(self.count.get() + 1);
        }
    }

    /// Takes a reaped client's vruntime `v` out; losing the last
    /// min-holder invalidates (the new minimum among the survivors is
    /// unknown without a scan).
    pub(super) fn reap(&self, v: u64) {
        if self.valid.get() && v == self.min.get() {
            self.drop_holder();
        }
    }

    /// A client was charged from vruntime `old` to `new`.
    pub(super) fn charged(&self, old: u64, new: u64) {
        if !self.valid.get() {
            return;
        }
        if old == self.min.get() {
            // With nobody else at the minimum the charged client may still
            // be it; a scan would be needed to know.
            self.drop_holder();
        } else if new == self.min.get() {
            self.count.set(self.count.get() + 1);
        } else if vruntime_before(new, self.min.get()) {
            self.min.set(new);
            self.count.set(1);
        }
    }

    fn drop_holder(&self) {
        let n = self.count.get().saturating_sub(1);
        self.count.set(n);
        if n == 0 {
            self.valid.set(false);
        }
    }

    /// The minimum over `owned`, the shard's clients: served from the
    /// cache, which a stale read recomputes once and leaves warm until
    /// the next invalidating event.
    fn get<'a>(&self, owned: impl Iterator<Item = &'a Rc<Client>> + Clone) -> Option<u64> {
        if self.sweep {
            return min_live_vruntime(owned);
        }
        if !self.valid.get() {
            self.recomputes.set(self.recomputes.get() + 1);
            match Self::scan(owned) {
                Some((m, n)) => {
                    self.min.set(m);
                    self.count.set(n);
                }
                None => self.count.set(0),
            }
            self.valid.set(true);
        }
        (self.count.get() > 0).then(|| self.min.get())
    }

    /// A valid cache equals the scan.
    fn audit<'a>(&self, owned: impl Iterator<Item = &'a Rc<Client>> + Clone) -> Result<(), String> {
        if !self.valid.get() {
            return Ok(());
        }
        let (min, count) = (self.min.get(), self.count.get());
        match Self::scan(owned) {
            Some((m, n)) if (min, count) != (m, n) => {
                Err(format!("min-vr cache ({min}, {count}) != sweep ({m}, {n})"))
            }
            None if count != 0 => Err(format!("min-vr cache claims {count} holder(s), none live")),
            _ => Ok(()),
        }
    }
}

/// A shard thread's assignment list — the clients its round drains,
/// syncs and schedules — and what it was built from. It lives in the
/// thread's round scratch; [`ShardState::assign`] refills it.
pub(super) struct Assigned {
    pub(super) clients: Vec<Rc<Client>>,
    /// Assignment epoch `clients` was built at. While the shard's epoch
    /// matches, the buffer is reused as-is — a settled poll over a
    /// stable client population costs O(1) list maintenance instead of an
    /// O(clients) rebuild.
    epoch: u64,
    /// Registration watermark latched at round start: only clients with
    /// `reg_seq < reg_watermark` enter this round's list, as a snapshot
    /// of the shard's list taken at round start would have it (a client
    /// registered mid-round is absent from that snapshot).
    pub(super) reg_watermark: u64,
}

impl Default for Assigned {
    fn default() -> Self {
        Assigned {
            clients: Vec::new(),
            epoch: u64::MAX,
            reg_watermark: u64::MAX,
        }
    }
}

/// Deterministic active set (DESIGN.md §18): the shard's clients with
/// unsettled state, keyed by `reg_seq` so iteration order equals the
/// shard's list (registration) order. Clients enter on the submission
/// doorbell (or scrub heal / adoption) and leave when fully settled at
/// round end; every live client outside it is [`settled`]. Under
/// `full_sweep` the set stays empty and a round's assignment is every
/// client the shard owns.
pub(super) struct ActiveSet {
    map: RefCell<BTreeMap<u64, Rc<Client>>>,
    /// Assignment epoch: bumped whenever this shard's assignment list
    /// could change (a client joins or leaves the shard or the set). Its
    /// round scratch compares against it; a peer's changes never move it.
    epoch: Cell<u64>,
    sweep: bool,
    activations: Cell<u64>,
    deactivations: Cell<u64>,
    /// Assignment-list rebuilds (epoch misses).
    rebuilds: Cell<u64>,
}

impl ActiveSet {
    fn bump_epoch(&self) {
        self.epoch.set(self.epoch.get().wrapping_add(1));
    }

    /// Idempotent and O(log active).
    fn activate(&self, client: &Rc<Client>) {
        if self.sweep || client.marks.active.get() || client.dead.get() {
            return;
        }
        client.marks.active.set(true);
        self.map
            .borrow_mut()
            .insert(client.reg_seq.get(), Rc::clone(client));
        self.bump_epoch();
        self.activations.set(self.activations.get() + 1);
    }

    /// Removes `client` (round-end settle pass and reap).
    fn deactivate(&self, client: &Client) {
        if !client.marks.active.replace(false) {
            return;
        }
        self.map.borrow_mut().remove(&client.reg_seq.get());
        self.bump_epoch();
        self.deactivations.set(self.deactivations.get() + 1);
    }

    /// The epoch at which `a`, as a round just left it, is current and
    /// empty: until the epoch moves, a round drains, syncs and schedules
    /// nobody. `None` under `full_sweep`: its set stays empty by design,
    /// so emptiness there says nothing about the shard being idle.
    pub(super) fn empty_at(&self, a: &Assigned) -> Option<u64> {
        let ep = self.epoch.get();
        (!self.sweep && a.epoch == ep && a.clients.is_empty()).then_some(ep)
    }

    /// Whether the assignment epoch is still `epoch`.
    pub(super) fn still_at(&self, epoch: u64) -> bool {
        self.epoch.get() == epoch
    }

    /// Completeness: every live client of `owned` (in `reg_seq` order)
    /// outside the set is settled, and every client in it is in `owned`.
    fn audit(&self, owned: &[Rc<Client>]) -> Result<(), String> {
        if self.sweep {
            return Ok(());
        }
        for c in owned {
            if !c.dead.get() && !c.marks.active.get() && !settled(c) {
                return Err(format!("inactive client {} holds unsettled work", c.id));
            }
        }
        for (&seq, c) in self.map.borrow().iter() {
            let listed = owned.binary_search_by_key(&seq, |o| o.reg_seq.get());
            if !listed.is_ok_and(|i| Rc::ptr_eq(&owned[i], c)) {
                return Err(format!("active client {} is not the shard's", c.id));
            }
        }
        Ok(())
    }
}

/// Whether `client` holds no unsettled control-plane state: all four
/// rings empty and no unfinished window entry. An inactive client in
/// this state is invisible to drain, sync, and scheduling in the
/// full-sweep reference too (empty rings drain nothing, `has_work` is
/// false, finished-but-unfinalized leftovers are never selected), so
/// skipping it is outcome- and virtual-time-identical.
fn settled(client: &Client) -> bool {
    let mut si = 0;
    while let Some(set) = client.set_at(si) {
        si += 1;
        if !set.uq.copy.is_empty()
            || !set.kq.copy.is_empty()
            || !set.uq.sync.is_empty()
            || !set.kq.sync.is_empty()
        {
            return false;
        }
        if set.pending.borrow().iter().any(|p| !p.finished()) {
            return false;
        }
    }
    true
}

/// The `(pending, index)` client-state hashes of a shard (DESIGN.md §14),
/// one definition at every shard count. They are *commutative*: each
/// client folds its own window and index state from a fresh FNV offset
/// ([`fold_client_commutative`]) and the shard's hash is the wrapping sum
/// of those contributions, so equal states hash equal regardless of how
/// they were reached. That shape admits the §18 delta fold — on a traced
/// service only clients touched since the last traced round re-fold, and
/// the sums here absorb the difference; under `full_sweep` (and with no
/// tracer, where nothing reads them) no sums are kept and every read
/// folds every client. The two forms agree bit for bit (checked by the
/// soak differential suite, which replays a cached recording through the
/// `full_sweep` recompute).
pub(super) struct HashSums {
    hp: Cell<u64>,
    hx: Cell<u64>,
    /// Clients whose contribution went stale since the last fold.
    dirty: RefCell<Vec<Rc<Client>>>,
    /// Whether the sums are maintained at all.
    cached: bool,
    /// Per-client contributions re-folded.
    refolds: Cell<u64>,
}

impl HashSums {
    fn new(cached: bool) -> Self {
        HashSums {
            hp: Cell::new(0),
            hx: Cell::new(0),
            dirty: RefCell::default(),
            cached,
            refolds: Cell::new(0),
        }
    }

    /// Marks `client`'s cached contribution stale and queues it for
    /// re-folding at the next traced round close.
    pub(super) fn mark_dirty(&self, client: &Rc<Client>) {
        if !self.cached || client.marks.hash_dirty.replace(true) {
            return;
        }
        self.dirty.borrow_mut().push(Rc::clone(client));
    }

    /// Takes a reaped client's contribution out of the sums.
    fn forget(&self, client: &Client) {
        if !self.cached {
            return;
        }
        let (hp, hx) = client.marks.hash_cache.replace((0, 0));
        self.hp.set(self.hp.get().wrapping_sub(hp));
        self.hx.set(self.hx.get().wrapping_sub(hx));
        // The flag stays false so a stale dirty-list entry is skipped.
        client.marks.hash_dirty.set(false);
    }

    /// Re-folds every dirty client into the sums: subtract the cached
    /// contribution, fold the current state, add it back. Cost is
    /// O(touched clients), not O(clients).
    fn refold(&self) {
        let dirty: Vec<Rc<Client>> = self.dirty.borrow_mut().drain(..).collect();
        for c in dirty {
            // A reap may have cleared the flag after the client was
            // queued; its contribution is already out of the sums.
            if !c.marks.hash_dirty.replace(false) {
                continue;
            }
            let (nhp, nhx) = fold_client_commutative(&c);
            let (ohp, ohx) = c.marks.hash_cache.replace((nhp, nhx));
            self.hp
                .set(self.hp.get().wrapping_sub(ohp).wrapping_add(nhp));
            self.hx
                .set(self.hx.get().wrapping_sub(ohx).wrapping_add(nhx));
            self.refolds.set(self.refolds.get() + 1);
        }
    }

    /// The sums over `owned`, every client of the shard, from scratch.
    fn fold_all<'a>(owned: impl Iterator<Item = &'a Rc<Client>>) -> (u64, u64) {
        owned.fold((0u64, 0u64), |(hp, hx), c| {
            let (p, x) = fold_client_commutative(c);
            (hp.wrapping_add(p), hx.wrapping_add(x))
        })
    }

    /// The shard's `(pending, index)` hashes.
    fn sums<'a>(&self, owned: impl Iterator<Item = &'a Rc<Client>>) -> (u64, u64) {
        if !self.cached {
            return Self::fold_all(owned);
        }
        self.refold();
        (self.hp.get(), self.hx.get())
    }

    /// Maintained sums, once refolded, equal the fold of every client.
    fn audit<'a>(&self, owned: impl Iterator<Item = &'a Rc<Client>>) -> Result<(), String> {
        if !self.cached {
            return Ok(());
        }
        self.refold();
        let (sp, sx) = (self.hp.get(), self.hx.get());
        let (hp, hx) = Self::fold_all(owned);
        if (hp, hx) != (sp, sx) {
            return Err(format!(
                "hash sums ({sp:#x}, {sx:#x}) != recompute ({hp:#x}, {hx:#x})"
            ));
        }
        Ok(())
    }
}

/// One client's contribution to the `(pending, index)` trace hashes: its
/// window and index state folded from a fresh FNV offset, so
/// contributions can be summed (and later subtracted) independently of
/// iteration order. Inside a client every component is iterated in a
/// deterministic order (registration order for sets, window-key order
/// for entries, BTreeMap order inside the index).
fn fold_client_commutative(c: &Rc<Client>) -> (u64, u64) {
    let mut hp = FNV_OFFSET;
    let mut hx = FNV_OFFSET;
    let mut si = 0;
    while let Some(set) = c.set_at(si) {
        si += 1;
        for e in set.pending.borrow().iter() {
            hp = fnv_fold(hp, e.tid);
            hp = fnv_fold(hp, e.key.0);
            hp = fnv_fold(hp, e.key.1 as u64);
            hp = fnv_fold(hp, e.key.2);
            hp = fnv_fold(hp, e.task.len as u64);
            for ivs in [&e.copied, &e.inflight, &e.deferred] {
                for (lo, hi) in ivs.borrow().iter() {
                    hp = fnv_fold(hp, lo as u64);
                    hp = fnv_fold(hp, hi as u64);
                }
                hp = fnv_fold(hp, u64::MAX); // interval-set sentinel
            }
            let promoted = e.promoted.borrow();
            let flags = (!promoted.is_empty() as u64)
                | (e.aborted.get() as u64) << 1
                | (e.failed.get().map_or(0, |f| f.code() as u64)) << 2;
            hp = fnv_fold(hp, flags);
            // A whole-task promotion is the flag alone (what every v2
            // trace recorded); a partial one adds its ranges.
            if !promoted.is_empty() && !promoted.covers(0, e.task.len) {
                for (lo, hi) in promoted.iter() {
                    hp = fnv_fold(hp, lo as u64);
                    hp = fnv_fold(hp, hi as u64);
                }
                hp = fnv_fold(hp, u64::MAX);
            }
        }
        hx = fnv_fold(hx, set.index.digest());
    }
    (hp, hx)
}

impl Copier {
    /// The state of the shard that owns `client`.
    pub(super) fn shard_of(&self, client: &Client) -> &ShardState {
        &self.shards[client.shard.get()]
    }

    /// Inserts `client` into its shard's active set and marks its
    /// trace-hash contribution dirty: what the doorbell does, for
    /// service-internal producers (scrub heals, adoption) too.
    pub(super) fn activate(&self, client: &Rc<Client>) {
        let sh = self.shard_of(client);
        sh.hashes.mark_dirty(client);
        sh.active.activate(client);
    }

    /// `bytes` physically copied on `client`'s behalf: the service total
    /// and its shard's share.
    pub(super) fn count_copied(&self, client: &Client, bytes: u64) {
        self.stats.borrow_mut().bytes_copied += bytes;
        let sh = self.shard_of(client);
        sh.bytes_copied.set(sh.bytes_copied.get() + bytes);
    }

    /// One of `client`'s tasks completed with every byte landed.
    pub(super) fn count_completed(&self, client: &Client) {
        self.stats.borrow_mut().tasks_completed += 1;
        let sh = self.shard_of(client);
        sh.tasks_completed.set(sh.tasks_completed.get() + 1);
    }

    /// Shard `idx` ended a round in which it executed a batch.
    pub(super) fn count_active_round(&self, idx: usize) {
        self.stats.borrow_mut().rounds_active += 1;
        let sh = &self.shards[idx];
        sh.rounds_active.set(sh.rounds_active.get() + 1);
    }

    /// Per-shard `(bytes_copied, tasks_completed, rounds_active)` deltas
    /// — the observables the shard-scaling bench and the differential
    /// suite read. Valid for `idx < nshards()`.
    pub fn shard_stats(&self, idx: usize) -> (u64, u64, u64) {
        let s = &self.shards[idx];
        (
            s.bytes_copied.get(),
            s.tasks_completed.get(),
            s.rounds_active.get(),
        )
    }

    /// Charges `bytes` to `client` through the scheduler while keeping
    /// its shard's cached min-vruntime exact.
    pub(super) fn charge_client(&self, client: &Rc<Client>, bytes: usize) {
        if bytes == 0 {
            return;
        }
        let old = client.copied_total.get();
        self.sched.charge(client, bytes);
        self.shard_of(client)
            .min_vr
            .charged(old, client.copied_total.get());
    }

    /// The `(pending, index, stats)` state hashes closing an active
    /// traced round of shard `idx`: its clients' sums, and the fold of
    /// its private stats cells continued over the service-wide stats.
    /// Closing every shard round with these is what lets replay
    /// divergence localize to a `(shard, round)` pair instead of
    /// "somewhere this generation".
    pub(super) fn round_hashes(&self, idx: usize) -> (u64, u64, u64) {
        let sh = &self.shards[idx];
        let (hp, hx) = sh.hashes.sums(sh.owned().iter());
        let hs = [
            sh.admit.bytes(),
            sh.bytes_copied.get(),
            sh.tasks_completed.get(),
            sh.rounds_active.get(),
        ]
        .into_iter()
        .fold(FNV_OFFSET, fnv_fold);
        (hp, hx, self.stats_digest(hs))
    }

    /// Snapshot of the control-plane cost observables (DESIGN.md §18).
    pub fn control_obs(&self) -> ControlObs {
        let mut o = ControlObs {
            barrier_wait_ns: self.barrier.waited_ns(),
            ..ControlObs::default()
        };
        for sh in &self.shards {
            o.activations += sh.active.activations.get();
            o.deactivations += sh.active.deactivations.get();
            o.assign_rebuilds += sh.active.rebuilds.get();
            o.minvr_recomputes += sh.min_vr.recomputes.get();
            o.hash_refolds += sh.hashes.refolds.get();
        }
        o
    }

    /// Cross-checks each shard's membership and every incrementally
    /// maintained aggregate against a from-scratch recomputation: the
    /// cached min-vruntime (when valid), active-set completeness, and —
    /// under delta-folded hashing — the hash sums after a refold. Test
    /// instrumentation; returns the first discrepancy. Host-side only.
    pub fn audit_aggregates(&self) -> Result<(), String> {
        let audit = |(i, sh): (usize, &ShardState)| {
            sh.audit(&self.shards)
                .map_err(|e| format!("shard {i}: {e}"))
        };
        self.shards.iter().enumerate().try_for_each(audit)
    }
}

/// `cfg` with `full_sweep` on: what a differential test elsewhere in the
/// service runs as its reference without naming the switch.
#[cfg(test)]
pub(super) fn sweeping(cfg: CopierConfig) -> CopierConfig {
    CopierConfig {
        full_sweep: true,
        ..cfg
    }
}

#[cfg(test)]
mod tests {
    use copier_hw::CostModel;
    use copier_mem::{AddressSpace, AllocPolicy, PhysMem};
    use copier_sim::{Machine, Sim};
    use copier_testkit::{check_with, prop_assert_eq, Config, TestRng};

    use super::*;

    #[derive(Debug)]
    enum VrOp {
        Register(u64),
        Charge(usize, u64),
        Reap(usize),
        Read,
    }

    /// Vruntimes start within a copy slice of `u64::MAX`, so charges carry
    /// accumulators past the wrap.
    fn gen_vr_ops(rng: &mut TestRng) -> Vec<VrOp> {
        let base = u64::MAX - rng.gen_range(4096);
        (0..rng.range_usize(1, 60))
            .map(|_| match rng.gen_range(8) {
                0 | 1 => VrOp::Register(base.wrapping_add(rng.gen_range(2048))),
                2..=4 => VrOp::Charge(rng.range_usize(0, 8), rng.gen_range(3) * 1024),
                5 => VrOp::Reap(rng.range_usize(0, 8)),
                _ => VrOp::Read,
            })
            .collect()
    }

    /// `MinVr` over random register / charge / reap sequences, read at
    /// random points: every read equals `min_live_vruntime`, and a cache
    /// that claims to be valid holds that minimum and a from-scratch count
    /// of the clients at it.
    #[test]
    fn min_vr_tracks_the_sweep_across_the_wrap() {
        let pm = Rc::new(PhysMem::new(4, AllocPolicy::Sequential));
        check_with(
            &Config::from_env(),
            gen_vr_ops,
            |_| Vec::new(),
            |ops: &Vec<VrOp>| {
                let mv = MinVr::new(false);
                let mut live: Vec<Rc<Client>> = Vec::new();
                for op in ops {
                    match *op {
                        VrOp::Register(v) => {
                            let space = AddressSpace::new(live.len() as u32, Rc::clone(&pm));
                            let c = Client::new(live.len() as u32, space, 2);
                            c.copied_total.set(v);
                            mv.register(v);
                            live.push(c);
                        }
                        VrOp::Charge(i, bytes) if i < live.len() && bytes > 0 => {
                            let old = live[i].copied_total.get();
                            live[i].copied_total.set(old.wrapping_add(bytes));
                            mv.charged(old, old.wrapping_add(bytes));
                        }
                        VrOp::Reap(i) if i < live.len() => {
                            let c = live.remove(i);
                            c.dead.set(true);
                            mv.reap(c.copied_total.get());
                        }
                        VrOp::Read => {
                            prop_assert_eq!(mv.get(live.iter()), min_live_vruntime(&live));
                        }
                        _ => {}
                    }
                    if mv.valid.get() {
                        let min = min_live_vruntime(&live);
                        let at_min = |c: &&Rc<Client>| Some(c.copied_total.get()) == min;
                        let n = live.iter().filter(at_min).count() as u64;
                        prop_assert_eq!(mv.count.get(), n, "holders after {:?}", op);
                        prop_assert_eq!((n > 0).then(|| mv.min.get()), min, "after {:?}", op);
                    }
                }
                Ok(())
            },
        );
    }

    /// `(shard, op)`: bytes admitted, bytes returned, or an admission
    /// decision (`None`).
    type LatchCase = (usize, u64, u64, Vec<(usize, Option<i64>)>);

    fn gen_latch_case(rng: &mut TestRng) -> LatchCase {
        let n = rng.range_usize(1, 5);
        let low = rng.gen_range(64) * 1024;
        let high = low + rng.gen_range(64) * 1024;
        let ops = (0..rng.range_usize(1, 80))
            .map(|_| {
                let len = rng.gen_range(48 * 1024) as i64;
                let op = match rng.gen_range(4) {
                    0 => Some(len),
                    1 => Some(-len),
                    _ => None,
                };
                (rng.range_usize(0, n), op)
            })
            .collect();
        (n, low, high, ops)
    }

    /// One `AdmitLatch` per shard against the model `tests/shard_budget.rs`
    /// walks recordings with: a shard latches at `high / n`, releases at
    /// `low / n`, and what its peers hold admitted never shows.
    #[test]
    fn admit_latch_follows_the_shard_local_model() {
        check_with(
            &Config::from_env(),
            gen_latch_case,
            |_| Vec::new(),
            |(n, low, high, ops): &LatchCase| {
                let (low, high) = (low / *n as u64, high / *n as u64);
                let latches: Vec<AdmitLatch> =
                    (0..*n).map(|_| AdmitLatch::new(low, high)).collect();
                let mut bytes = vec![0u64; *n];
                let mut shedding = vec![false; *n];
                for &(s, op) in ops {
                    match op {
                        Some(len) if len >= 0 => {
                            latches[s].add(len as u64);
                            bytes[s] += len as u64;
                        }
                        Some(len) => {
                            latches[s].sub(len.unsigned_abs());
                            bytes[s] = bytes[s].saturating_sub(len.unsigned_abs());
                        }
                        None => {
                            shedding[s] = if shedding[s] {
                                bytes[s] > low
                            } else {
                                bytes[s] >= high
                            };
                            prop_assert_eq!(
                                latches[s].shedding(),
                                shedding[s],
                                "shard {} with {} B against ({}, {})",
                                s,
                                bytes[s],
                                low,
                                high
                            );
                        }
                    }
                    prop_assert_eq!(latches[s].bytes(), bytes[s]);
                }
                Ok(())
            },
        );
    }

    /// The membership audit: clean through registration, reap and adoption
    /// onto another shard count, and naming each mutant it kills — a
    /// `leave` that does not remove, adoption joining twice, and a `join`
    /// onto a stale `client.shard` (adoption joining before it re-stamps).
    #[test]
    fn membership_audit_kills_the_join_and_leave_mutants() {
        let sim = Sim::new();
        let machine = Machine::new(&sim.handle(), 4);
        let pm = Rc::new(PhysMem::new(64, AllocPolicy::Sequential));
        let service = |shards: usize| {
            let cores = machine.cores()[..shards].to_vec();
            let cost = Rc::new(CostModel::default());
            let cfg = CopierConfig {
                shards,
                ..Default::default()
            };
            Copier::new(&sim.handle(), Rc::clone(&pm), cores, cost, cfg)
        };
        let fails = |svc: &Copier, why: &str| {
            let e = svc.audit_aggregates().expect_err(why);
            assert!(e.contains(why), "{why}: {e}");
        };
        let svc = service(4);
        let space = |id| AddressSpace::new(id, Rc::clone(&pm));
        let clients: Vec<_> = (1..=12).map(|id| svc.register_client(space(id))).collect();
        let reaped = &clients[5];
        svc.reap_client(reaped);
        assert_eq!(svc.audit_aggregates(), Ok(()));
        let list = &svc.shard_of(reaped).clients;
        list.borrow_mut().push(Rc::clone(reaped));
        fails(&svc, "reaped");
        // A successor at another shard count re-stamps as it adopts.
        let adopted = service(3);
        let live = clients.iter().filter(|c| !c.dead.get());
        live.for_each(|c| drop(adopted.adopt_client(c)));
        assert_eq!(adopted.audit_aggregates(), Ok(()));
        adopted.shard_of(&clients[0]).join(&clients[0]);
        fails(&adopted, "twice");
        let stale = service(4);
        let (c, stamp) = (&clients[1], clients[1].shard.get());
        c.shard.set((stamp + 1) % 4);
        stale.shard_of(c).join(c);
        c.shard.set(stamp);
        fails(&stale, "misstamped");
    }
}
