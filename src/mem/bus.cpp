#include "mem/bus.h"

namespace cheriot::mem
{

BusResult
Bus::injectFaults(unsigned beats, uint32_t drops, uint32_t extraBeats)
{
    BusResult result;
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
