#include "mem/bus.h"

#include "fault/fault_injector.h"

namespace cheriot::mem
{

BusResult
Bus::transact(unsigned beats, fault::FaultInjector *injector)
{
    transactions++;
    this->beats += beats;
    if (injector == nullptr) {
        return BusResult{};
    }
    BusResult result;
    uint32_t extraBeats = 0;
    uint32_t drops = injector->busTransactionFaults(&extraBeats);
    result.extraCycles += extraBeats;
    delayCycles += extraBeats;

    uint32_t backoff = kBackoffBase;
    while (drops > 0 && result.retries < kMaxRetries) {
        --drops;
        ++result.retries;
        retries++;
        // The replay re-moves every beat, after the backoff wait.
        result.extraCycles += backoff + beats;
        delayCycles += backoff;
        backoff *= 2;
    }
    if (drops > 0) {
        errors++;
        result.ok = false;
    }
    return result;
}

const char *
busWidthName(BusWidth width)
{
    switch (width) {
      case BusWidth::Wide65: return "65-bit";
      case BusWidth::Narrow33: return "33-bit";
    }
    return "?";
}

} // namespace cheriot::mem
