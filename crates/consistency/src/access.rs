//! Classification of memory accesses for ordering purposes.

use mcsim_isa::{Instr, MemFlavor};
use serde::{Deserialize, Serialize};
use std::fmt;

/// What a memory access does and how it is classified — the information the
/// delay-arc relation needs about each end of an arc.
///
/// An atomic read-modify-write both reads and writes; for ordering it is
/// treated as carrying *both* obligations, which is why `reads` and
/// `writes` are independent flags rather than an enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AccessClass {
    /// The access binds a return value (loads, RMWs).
    pub reads: bool,
    /// The access makes a new value visible (stores, RMWs).
    pub writes: bool,
    /// Synchronization classification.
    pub flavor: MemFlavor,
}

impl AccessClass {
    /// An ordinary load.
    pub const LOAD: AccessClass = AccessClass {
        reads: true,
        writes: false,
        flavor: MemFlavor::Ordinary,
    };
    /// An ordinary store.
    pub const STORE: AccessClass = AccessClass {
        reads: false,
        writes: true,
        flavor: MemFlavor::Ordinary,
    };
    /// An acquire load (flag spin).
    pub const ACQUIRE_LOAD: AccessClass = AccessClass {
        reads: true,
        writes: false,
        flavor: MemFlavor::Acquire,
    };
    /// A release store (unlock / flag set).
    pub const RELEASE_STORE: AccessClass = AccessClass {
        reads: false,
        writes: true,
        flavor: MemFlavor::Release,
    };
    /// An acquire read-modify-write (lock acquisition).
    pub const ACQUIRE_RMW: AccessClass = AccessClass {
        reads: true,
        writes: true,
        flavor: MemFlavor::Acquire,
    };

    /// Classifies a memory instruction; `None` for non-memory instructions.
    #[must_use]
    pub fn of_instr(i: &Instr) -> Option<AccessClass> {
        let flavor = i.mem_flavor()?;
        Some(AccessClass {
            reads: i.is_mem_read(),
            writes: i.is_mem_write(),
            flavor,
        })
    }

    /// Whether this is a synchronization access.
    #[must_use]
    pub fn is_sync(self) -> bool {
        self.flavor.is_sync()
    }

    /// Whether this access carries acquire semantics.
    #[must_use]
    pub fn is_acquire(self) -> bool {
        self.flavor == MemFlavor::Acquire
    }

    /// Whether this access carries release semantics.
    #[must_use]
    pub fn is_release(self) -> bool {
        self.flavor == MemFlavor::Release
    }
}

impl fmt::Display for AccessClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let base = match (self.reads, self.writes) {
            (true, true) => "rmw",
            (true, false) => "load",
            (false, true) => "store",
            (false, false) => "nop",
        };
        match self.flavor {
            MemFlavor::Ordinary => write!(f, "{base}"),
            MemFlavor::Acquire => write!(f, "{base}.acq"),
            MemFlavor::Release => write!(f, "{base}.rel"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim_isa::reg::R1;
    use mcsim_isa::{AddrExpr, Operand, RmwKind};

    #[test]
    fn classify_instructions() {
        let ld = Instr::Load {
            dst: R1,
            addr: AddrExpr::direct(0),
            flavor: MemFlavor::Ordinary,
        };
        assert_eq!(AccessClass::of_instr(&ld), Some(AccessClass::LOAD));

        let rel = Instr::Store {
            addr: AddrExpr::direct(0),
            src: Operand::Imm(0),
            flavor: MemFlavor::Release,
        };
        assert_eq!(
            AccessClass::of_instr(&rel),
            Some(AccessClass::RELEASE_STORE)
        );

        let tas = Instr::Rmw {
            dst: R1,
            addr: AddrExpr::direct(0),
            kind: RmwKind::TestAndSet,
            src: Operand::Imm(0),
            flavor: MemFlavor::Acquire,
        };
        assert_eq!(AccessClass::of_instr(&tas), Some(AccessClass::ACQUIRE_RMW));

        assert_eq!(AccessClass::of_instr(&Instr::Nop), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(AccessClass::LOAD.to_string(), "load");
        assert_eq!(AccessClass::ACQUIRE_RMW.to_string(), "rmw.acq");
        assert_eq!(AccessClass::RELEASE_STORE.to_string(), "store.rel");
    }
}
