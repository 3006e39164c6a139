//! Deterministic event schedules keyed to an access clock.
//!
//! Every scheduled disturbance in the model is a [`Schedule`] of its own
//! event type: balloon and flush faults
//! ([`FaultPlan`](crate::config::FaultPlan)), memory upsets
//! ([`BitFlipPlan`](crate::config::BitFlipPlan)) and tenant churn
//! ([`ChurnPlan`](crate::tenancy::ChurnPlan)). A run turns each schedule
//! into a cursor once, and the cursor alone decides when an event fires:
//! in ascending `at_access` order, ties in insertion order, each event
//! just before the access its count names. A schedule is seed-independent,
//! so two runs with the same seed and the same schedules are bit-identical.

/// One scheduled event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// Clock value at which the event fires: it applies as soon as the
    /// owner's clock reaches this count, before the next access runs. A
    /// [`System`](crate::System) counts accesses since construction
    /// (warmup included), so an event at 0 lands before the first access;
    /// a [`MultiTenantSystem`](crate::MultiTenantSystem) counts measured
    /// accesses summed across every tenant and checks at the start of each
    /// scheduling round.
    pub at_access: u64,
    /// What happens.
    pub event: E,
}

/// A deterministic schedule of events, in any order (a run sorts them
/// stably, so events at the same access fire in insertion order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule<E> {
    /// The scheduled events, in insertion order.
    pub events: Vec<Scheduled<E>>,
}

// Written by hand: the derive would require `E: Default`.
impl<E> Default for Schedule<E> {
    fn default() -> Self {
        Self { events: Vec::new() }
    }
}

impl<E> Schedule<E> {
    /// An empty schedule.
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds an event (builder style).
    pub fn with(mut self, at_access: u64, event: E) -> Self {
        self.events.push(Scheduled { at_access, event });
        self
    }

    /// Whether the schedule holds anything.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// A run's position in a [`Schedule`]: the events, stably sorted by
/// `at_access` once at construction, and how many of them have fired.
pub(crate) struct Cursor<E> {
    events: Vec<Scheduled<E>>,
    next: usize,
}

impl<E: Copy> Cursor<E> {
    /// A cursor at the start of `schedule`.
    pub(crate) fn new(schedule: &Schedule<E>) -> Self {
        let mut events = schedule.events.clone();
        events.sort_by_key(|e| e.at_access);
        Self { events, next: 0 }
    }

    /// Fires the next event if it is due at `clock` (`at_access <= clock`).
    pub(crate) fn pop_due(&mut self, clock: u64) -> Option<E> {
        let ev = self.events.get(self.next).filter(|e| e.at_access <= clock)?;
        self.next += 1;
        Some(ev.event)
    }

    /// When the next unfired event is due, if any remain.
    pub(crate) fn next_at(&self) -> Option<u64> {
        self.events.get(self.next).map(|e| e.at_access)
    }

    /// Events fired so far.
    pub(crate) fn consumed(&self) -> u64 {
        self.next as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(cursor: &mut Cursor<char>, clock: u64) -> Vec<char> {
        std::iter::from_fn(|| cursor.pop_due(clock)).collect()
    }

    #[test]
    fn fires_in_access_order_with_ties_in_insertion_order() {
        let schedule =
            Schedule::none().with(30, 'd').with(10, 'a').with(20, 'b').with(20, 'c').with(10, 'z');
        let mut cursor = Cursor::new(&schedule);
        assert_eq!(drain(&mut cursor, u64::MAX), ['a', 'z', 'b', 'c', 'd']);
        assert_eq!(cursor.next_at(), None);
    }

    #[test]
    fn event_at_zero_fires_before_the_first_access() {
        let mut cursor = Cursor::new(&Schedule::none().with(1, 'b').with(0, 'a'));
        assert_eq!(drain(&mut cursor, 0), ['a']);
        assert_eq!(cursor.next_at(), Some(1));
    }

    #[test]
    fn nothing_later_than_the_clock_fires() {
        let mut cursor = Cursor::new(&Schedule::none().with(5, 'a').with(6, 'b').with(9, 'c'));
        assert!(drain(&mut cursor, 4).is_empty());
        assert_eq!(drain(&mut cursor, 5), ['a']);
        assert_eq!(drain(&mut cursor, 8), ['b']);
        assert_eq!(cursor.next_at(), Some(9));
        assert_eq!(drain(&mut cursor, 9), ['c']);
        assert!(drain(&mut cursor, u64::MAX).is_empty());
    }

    #[test]
    fn consumed_counts_the_events_fired() {
        let mut cursor = Cursor::new(&Schedule::none().with(3, 'a').with(1, 'b').with(3, 'c'));
        assert_eq!(cursor.consumed(), 0);
        let mut fired = drain(&mut cursor, 2).len();
        assert_eq!(cursor.consumed(), fired as u64);
        fired += drain(&mut cursor, 3).len();
        assert_eq!((fired, cursor.consumed()), (3, 3));
    }

    #[test]
    fn empty_schedule_fires_nothing() {
        let schedule = Schedule::<char>::default();
        assert!(schedule.is_empty() && Schedule::<char>::none().is_empty());
        let mut cursor = Cursor::new(&schedule);
        assert_eq!(
            (cursor.pop_due(u64::MAX), cursor.next_at(), cursor.consumed()),
            (None, None, 0)
        );
    }
}
