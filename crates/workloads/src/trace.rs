//! Trace recording: capturing generated access streams so experiments can be
//! replayed exactly (the paper drives its simulator from Pin traces; we
//! record and replay synthetic ones).

use hatric_types::{AddressSpaceId, GuestVirtPage, VcpuId};

use crate::stream::Access;

/// One event of a recorded trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The vCPU (thread) that issued the access.
    pub vcpu: VcpuId,
    /// The guest address space the access belongs to.
    pub asid: AddressSpaceId,
    /// Guest-virtual page touched.
    pub gvp: GuestVirtPage,
    /// Cache line within the page.
    pub line_in_page: u8,
    /// Whether it was a store.
    pub is_write: bool,
    /// Compute cycles preceding the access.
    pub compute_cycles: u32,
}

impl TraceEvent {
    /// Builds an event from a generated access.
    #[must_use]
    pub fn from_access(vcpu: VcpuId, asid: AddressSpaceId, access: Access) -> Self {
        Self {
            vcpu,
            asid,
            gvp: access.gvp,
            line_in_page: access.line_in_page,
            is_write: access.is_write,
            compute_cycles: access.compute_cycles,
        }
    }
}

/// An in-memory trace recorder with a bounded capacity.
#[derive(Debug, Clone, Default)]
pub struct TraceRecorder {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl TraceRecorder {
    /// Creates a recorder that keeps at most `capacity` events (0 disables
    /// recording entirely).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            events: Vec::with_capacity(capacity.min(1 << 20)),
            capacity,
            dropped: 0,
        }
    }

    /// Records one event (dropping it if the recorder is full).
    pub fn record(&mut self, event: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded events.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// How many events did not fit.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(page: u64) -> TraceEvent {
        TraceEvent {
            vcpu: VcpuId::new(0),
            asid: AddressSpaceId::new(0),
            gvp: GuestVirtPage::new(page),
            line_in_page: 0,
            is_write: false,
            compute_cycles: 1,
        }
    }

    #[test]
    fn records_up_to_capacity() {
        let mut rec = TraceRecorder::new(2);
        rec.record(event(1));
        rec.record(event(2));
        rec.record(event(3));
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.dropped(), 1);
        assert_eq!(rec.events()[0].gvp, GuestVirtPage::new(1));
    }

    #[test]
    fn zero_capacity_drops_everything() {
        let mut rec = TraceRecorder::new(0);
        rec.record(event(1));
        assert!(rec.is_empty());
        assert_eq!(rec.dropped(), 1);
    }

    #[test]
    fn from_access_preserves_fields() {
        let access = Access {
            gvp: GuestVirtPage::new(9),
            line_in_page: 3,
            is_write: true,
            compute_cycles: 5,
        };
        let ev = TraceEvent::from_access(VcpuId::new(2), AddressSpaceId::new(1), access);
        assert_eq!(ev.gvp, GuestVirtPage::new(9));
        assert!(ev.is_write);
        assert_eq!(ev.vcpu, VcpuId::new(2));
    }
}
