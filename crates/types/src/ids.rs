//! Identifiers for the hardware and software entities the simulator models:
//! physical CPUs, virtual CPUs, virtual machines, guest processes, and
//! address spaces.

use core::fmt;

macro_rules! id_newtype {
    ($(#[$meta:meta])* $name:ident, $short:expr) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default,
        )]
        pub struct $name(u32);

        impl $name {
            /// Creates an identifier from its index.
            #[must_use]
            pub const fn new(index: u32) -> Self {
                Self(index)
            }

            /// Returns the identifier's index.
            #[must_use]
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Returns the identifier's raw value.
            #[must_use]
            pub const fn raw(self) -> u32 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($short, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(index: u32) -> Self {
                Self(index)
            }
        }

        impl From<usize> for $name {
            fn from(index: usize) -> Self {
                Self(index as u32)
            }
        }

        impl From<$name> for usize {
            fn from(id: $name) -> usize {
                id.index()
            }
        }
    };
}

id_newtype!(
    /// A physical CPU (core) in the simulated machine.
    CpuId,
    "cpu"
);
id_newtype!(
    /// A virtual CPU belonging to a virtual machine.
    VcpuId,
    "vcpu"
);
id_newtype!(
    /// A virtual machine managed by the hypervisor.
    VmId,
    "vm"
);
id_newtype!(
    /// A guest process running inside a virtual machine.
    ProcessId,
    "pid"
);
id_newtype!(
    /// A socket (NUMA node) of a multi-socket host: a package holding a
    /// contiguous block of physical CPUs plus its locally attached DRAM
    /// devices.  Accesses that cross sockets pay the inter-socket link.
    SocketId,
    "skt"
);
id_newtype!(
    /// A guest address space (one guest page table).  Processes within a VM
    /// each have their own address space; the hypervisor does not know which
    /// physical CPUs an address space ran on, which is the root cause of the
    /// imprecise target identification the paper describes (Sec. 3.2).
    AddressSpaceId,
    "asid"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let cpu = CpuId::new(7);
        assert_eq!(cpu.index(), 7);
        assert_eq!(usize::from(cpu), 7);
        assert_eq!(CpuId::from(7usize), cpu);
    }

    #[test]
    fn display_is_short() {
        assert_eq!(CpuId::new(3).to_string(), "cpu3");
        assert_eq!(VcpuId::new(1).to_string(), "vcpu1");
        assert_eq!(VmId::new(0).to_string(), "vm0");
        assert_eq!(ProcessId::new(9).to_string(), "pid9");
        assert_eq!(AddressSpaceId::new(2).to_string(), "asid2");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(CpuId::new(1) < CpuId::new(2));
    }
}
