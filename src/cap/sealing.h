/**
 * @file
 * CHERIoT object types (otypes) and sealed-entry ("sentry") capability
 * classification (paper §3.1.2, §3.2.2).
 *
 * The otype field is 3 bits; otype 0 means unsealed. The remaining
 * seven values form two disjoint namespaces selected by the execute
 * permission:
 *
 *  - Executable otypes. Five are consumed by (or reserved for)
 *    sentries — forward sentries that set the interrupt posture to
 *    inherited / enabled / disabled, and two return sentries that
 *    restore an enabled or disabled posture — leaving two for
 *    software.
 *  - Data otypes. None has hardware significance; the RTOS allocates
 *    four for core components, leaving three free.
 *
 * The sealing root capability's bounds cover a small otype address
 * space; by convention data otypes occupy addresses 1..7 and
 * executable otypes addresses 9..15 (the architectural otype is the
 * address minus 8 for the executable set).
 */

#ifndef CHERIOT_CAP_SEALING_H
#define CHERIOT_CAP_SEALING_H

#include <cstdint>

namespace cheriot::cap
{

/** The unsealed otype value. */
constexpr uint8_t kOtypeUnsealed = 0;

/** Executable-namespace otypes with hardware meaning. */
enum ExecOtype : uint8_t
{
    kSentryInherit = 1,       ///< Jump target; keeps interrupt posture.
    kSentryEnable = 2,        ///< Jump target; enables interrupts.
    kSentryDisable = 3,       ///< Jump target; disables interrupts.
    kReturnSentryEnable = 4,  ///< Link value; restores enabled posture.
    kReturnSentryDisable = 5, ///< Link value; restores disabled posture.
    kExecOtypeSoftware0 = 6,  ///< Free for software use.
    kExecOtypeSoftware1 = 7,  ///< Free for software use.
};

/** Data-namespace otypes allocated by the RTOS (§3.2.2). */
enum DataOtype : uint8_t
{
    kOtypeAllocator = 1, ///< Sealed allocation handles.
    kOtypeSwitcher = 2,  ///< Cross-compartment export entries.
    kOtypeScheduler = 3, ///< Thread/queue handles.
    kOtypeToken = 4,     ///< Generic sealed-token API.
    kDataOtypeFree0 = 5,
    kDataOtypeFree1 = 6,
    kDataOtypeFree2 = 7,
};

/** Number of distinct otype values in each namespace (incl. unsealed). */
constexpr uint8_t kOtypeCount = 8;

/**
 * Address-space layout of otypes as seen by the sealing root: data
 * otype o lives at address o, executable otype o at address o + 8.
 */
constexpr uint32_t kDataOtypeAddressBase = 0;
constexpr uint32_t kExecOtypeAddressBase = 8;
constexpr uint32_t kOtypeAddressSpaceSize = 16;

/** The address of otype 0 in the executable or the data namespace. */
constexpr uint32_t
otypeAddressBase(bool executable)
{
    return executable ? kExecOtypeAddressBase : kDataOtypeAddressBase;
}

/** Interrupt posture requested by a sentry jump. */
enum class InterruptPosture : uint8_t
{
    Inherit, ///< Keep the current posture.
    Enabled,
    Disabled,
};

/** True iff @p otype (executable namespace) is a forward sentry. */
constexpr bool
isForwardSentry(uint8_t otype)
{
    return otype >= kSentryInherit && otype <= kSentryDisable;
}

/** True iff @p otype (executable namespace) is a return sentry. */
constexpr bool
isReturnSentry(uint8_t otype)
{
    return otype == kReturnSentryEnable || otype == kReturnSentryDisable;
}

/** True iff @p otype is any hardware-interpreted sentry. */
constexpr bool
isSentry(uint8_t otype)
{
    return isForwardSentry(otype) || isReturnSentry(otype);
}

/** Posture a forward sentry requests when jumped through. */
InterruptPosture sentryPosture(uint8_t otype);

/** The forward-sentry otype for a posture. */
uint8_t forwardSentryFor(InterruptPosture posture);

/**
 * The return-sentry otype that captures @p interruptsEnabled, used by
 * jump-and-link to seal the link register (§3.1.2).
 */
uint8_t returnSentryFor(bool interruptsEnabled);

/** Posture restored by a return sentry. */
bool returnSentryEnablesInterrupts(uint8_t otype);

} // namespace cheriot::cap

#endif // CHERIOT_CAP_SEALING_H
