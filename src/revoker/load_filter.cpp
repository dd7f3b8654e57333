#include "revoker/load_filter.h"

namespace cheriot::revoker
{

} // namespace cheriot::revoker
