//! Small helpers shared by the algorithm drivers.

use pushpull_core::error::MachineError;

/// Is this error a criterion violation (an expected conflict, from a
/// driver's point of view)?
pub fn is_conflict(e: &MachineError) -> bool {
    e.is_criterion()
}
